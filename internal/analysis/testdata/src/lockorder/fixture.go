// Fixture for the lockorder analyzer (type-checked as
// paydemand/internal/engine).
package engine

import "sync"

type region struct {
	id int
	mu sync.Mutex
}

type stats struct {
	mu sync.RWMutex
	n  int
}

// Accepted: each acquire is directly followed by a defer of its release,
// or released later in its block by straight-line code.

func deferred(r *region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.id++
}

func readDeferred(s *stats) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

func straightLine(r *region, bump bool) {
	r.mu.Lock()
	if bump {
		r.id++
	}
	r.mu.Unlock()
	r.mu.Lock()
	r.id++
	r.mu.Unlock()
}

// A lock taken in a function literal is its own body's concern, so a
// literal per loop iteration may lock the same receiver each time.
func perIteration(regs []*region) {
	for _, r := range regs {
		func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.id++
		}()
	}
}

// Flagged.

func unlockAfterReturn(r *region) {
	r.mu.Lock() // want `r.mu.Lock\(\) is neither directly followed by defer r.mu.Unlock\(\) nor unlocked later in its block`
	if r.id < 0 {
		return
	}
	r.id++
	r.mu.Unlock()
}

func unlockAfterPanic(r *region) {
	r.mu.Lock() // want `r.mu.Lock\(\) is neither directly followed by defer r.mu.Unlock\(\)`
	if r.id < 0 {
		panic("negative id")
	}
	r.mu.Unlock()
}

func unlockInBranch(r *region) {
	r.mu.Lock() // want `r.mu.Lock\(\) is neither directly followed by defer r.mu.Unlock\(\)`
	if r.id > 0 {
		r.mu.Unlock()
	}
}

func otherReceiver(a, b *region) {
	a.mu.Lock() // want `a.mu.Lock\(\) is neither directly followed by defer a.mu.Unlock\(\)`
	defer b.mu.Unlock()
}

func wrongRelease(s *stats) int {
	s.mu.RLock() // want `s.mu.RLock\(\) is neither directly followed by defer s.mu.RUnlock\(\)`
	defer s.mu.Unlock()
	return s.n
}

func doubleLock(r *region) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.id++
	r.mu.Lock() // want `r.mu is locked again while this function body still holds it`
	defer r.mu.Unlock()
}

func nestedLock(r *region) {
	r.mu.Lock()
	r.mu.Lock() // want `r.mu is locked again while this function body still holds it`
	r.mu.Unlock()
	r.mu.Unlock()
}

func lockInLoop(regs []*region) {
	for _, r := range regs {
		r.mu.Lock() // want `r.mu is locked inside a loop`
		defer r.mu.Unlock()
	}
}

func leakInLiteral(r *region) func() {
	return func() {
		r.mu.Lock() // want `r.mu.Lock\(\) is neither directly followed by defer r.mu.Unlock\(\)`
		r.id++
	}
}

// Suppressed: the directive names why the release is not deferred.

func handOff(r *region, release chan<- *region) {
	//paylint:lockorder the receiver of the channel unlocks r
	r.mu.Lock()
	release <- r
}
