// Fixture for the directive analyzer's stale-suppression check, run as
// a batch with mapiter and lockorder the way cmd/paylint runs the real
// tree: a directive whose owning analyzer ran and found nothing to
// suppress is itself reported, so suppressions cannot outlive the code
// they excused (type-checked as paydemand/internal/sim).
package sim

import (
	"sort"
	"sync"
)

// Used directive: the loop is a real mapiter finding without it, so the
// directive is consulted and earns its keep.
func maxValue(m map[int]int) int {
	best := 0
	//paylint:sorted max over values is order-independent
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Stale directive: the loop matches the sorted-accumulator pattern, so
// mapiter accepts it on structure alone and the directive suppresses
// nothing.
func sortedKeys(m map[int]int) []int {
	var ks []int
	/* want `stale directive //paylint:sorted` */ //paylint:sorted keys get sorted below
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

type guard struct {
	mu sync.Mutex
	n  int
}

// Used directive: suppresses a genuine manual-unlock finding.
func handOff(g *guard, release chan<- *guard) {
	//paylint:lockorder the receiver of the channel unlocks g
	g.mu.Lock()
	release <- g
}

// Stale directive: the lock below is released by defer, so lockorder
// never consults the suppression.
func deferredLock(g *guard) {
	/* want `stale directive //paylint:lockorder` */ //paylint:lockorder legacy excuse from before the unlock was deferred
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}
