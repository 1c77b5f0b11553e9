// Fixture for the lockorder analyzer (type-checked as
// paydemand/internal/engine; TestLockOrder ranks its lock classes for
// the test's duration: region.mu rank 20, Engine.closedMu rank 30).
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

// Rank order: closedMu (rank 30) must never be held when a region lock
// (rank 20) is acquired.

func badOrder(e *Engine, r *region) {
	e.closedMu.Lock()
	r.mu.Lock() // want `locks must be acquired in ascending rank order`
	r.mu.Unlock()
	e.closedMu.Unlock()
}

func goodOrder(e *Engine, r *region) {
	r.mu.Lock()
	e.closedMu.Lock()
	e.closedMu.Unlock()
	r.mu.Unlock()
}

// Two locks of the same rank cannot be ordered by the table; pairwise
// acquisition is flagged unless a directive documents the order.

func pairUnordered(a, b *region) {
	a.mu.Lock()
	b.mu.Lock() // want `locks must be acquired in ascending rank order`
	b.mu.Unlock()
	a.mu.Unlock()
}

func pairAscending(a, b *region) {
	a.mu.Lock()
	//paylint:lockorder caller sorts a and b by ascending region ID
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// The symmetric two-phase idiom: the lock and unlock loops canonicalize
// to the same bulk key {regs, "[].mu"} and balance each other.

func commitAll(regs []*region) {
	for _, r := range regs {
		r.mu.Lock()
	}
	for i := range regs {
		regs[i].id++
	}
	for i := len(regs) - 1; i >= 0; i-- {
		regs[i].mu.Unlock()
	}
}

func lockAllLeak(regs []*region) {
	for _, r := range regs {
		r.mu.Lock() // want `regs\[\]\.mu locked here is not unlocked on every path to return`
	}
}

// Locals and unlisted fields are unranked: exempt from ordering but
// still checked for balance.

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
