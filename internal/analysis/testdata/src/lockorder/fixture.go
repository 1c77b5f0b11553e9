// Fixture for the lockorder analyzer (type-checked as
// paydemand/internal/engine).
package engine

import "sync"

type region struct {
	id int
	mu sync.Mutex
}

type Engine struct {
	closedMu sync.Mutex
	regions  []*region
}

// Balanced forms.

func balanced(r *region) {
	r.mu.Lock()
	r.id++
	r.mu.Unlock()
}

func deferred(e *Engine) {
	e.closedMu.Lock()
	defer e.closedMu.Unlock()
	e.regions = e.regions[:0]
}

// Release discipline.

func leakAlways(r *region) {
	r.mu.Lock() // want `r.mu locked here is not unlocked on every path to return`
	r.id++
}

func leakMaybe(r *region, skip bool) {
	r.mu.Lock() // want `r.mu locked here may still be held on some paths at return`
	if skip {
		return
	}
	r.mu.Unlock()
}

func doubleLock(r *region) {
	r.mu.Lock()
	r.mu.Lock() // want `r.mu is locked again while already held; this deadlocks`
	r.mu.Unlock()
	r.mu.Unlock()
}

// Loops: the body runs 0 or 1 times in the CFG model, so a lock the
// body takes must also be released in the body.

func perIteration(regs []*region) {
	for _, r := range regs {
		r.mu.Lock()
		r.id++
		r.mu.Unlock()
	}
}

func lockInLoopLeak(regs []*region) {
	for i := range regs {
		regs[i].mu.Lock() // want `regs\[\]\.mu locked here may still be held on some paths at return`
	}
}

// Two locks held at once are not ordered against each other; each is
// only checked for balance.

func twoFields(e *Engine, r *region) {
	e.closedMu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	e.closedMu.Unlock()
}

// Locals are checked for balance like fields.

func localBalanced() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

func localLeak(skip bool) {
	var mu sync.Mutex
	mu.Lock() // want `mu locked here may still be held on some paths at return`
	if skip {
		return
	}
	mu.Unlock()
}

// RWMutex read-side locks are tracked under their own key variant.

type stats struct {
	mu sync.RWMutex
	n  int
}

func readBalanced(s *stats) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

func readLeak(s *stats) int {
	s.mu.RLock() // want `s.mu locked here is not unlocked on every path to return`
	return s.n
}
