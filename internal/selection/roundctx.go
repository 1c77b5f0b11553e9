package selection

import (
	"fmt"

	"paydemand/internal/geo"
)

// RoundContext is the shared solver state: the pairwise distance table
// over a set of task locations, computed once and consulted by every
// user's selection call. Task locations are static, so the table — which
// every solver previously rebuilt per call — is identical for all users of
// a round and for every round of a campaign; the round engine builds one
// per task board.
//
// Wire it up by setting Problem.Ctx and giving each Candidate the CtxIndex
// of its task in the location slice the context was built over. Distances
// are stored exactly as geo.Point.Dist computes them, so solver results are
// bit-for-bit identical to the uncached path.
//
// A RoundContext is immutable once built, so any number of goroutines may
// solve against it concurrently, for as long as they hold it.
type RoundContext struct {
	locs []geo.Point
	dist []float64 // row-major n x n pairwise distances
	n    int
}

// NewRoundContext builds a context over the given task locations, which
// are copied; the caller may reuse its slice. It rejects non-finite
// locations, taking that check over from per-call Problem validation.
func NewRoundContext(locs []geo.Point) (*RoundContext, error) {
	for i, l := range locs {
		if !l.IsFinite() {
			return nil, fmt.Errorf("%w: non-finite task location %v at index %d", ErrBadProblem, l, i)
		}
	}
	n := len(locs)
	c := &RoundContext{
		locs: append([]geo.Point(nil), locs...),
		dist: make([]float64, n*n),
		n:    n,
	}
	for a := 0; a < n; a++ {
		la := c.locs[a]
		row := c.dist[a*n : (a+1)*n]
		for b := 0; b < n; b++ {
			row[b] = la.Dist(c.locs[b])
		}
	}
	return c, nil
}

// Len returns the number of tasks the context covers.
func (c *RoundContext) Len() int { return c.n }

// Location returns the location of task i.
func (c *RoundContext) Location(i int) geo.Point { return c.locs[i] }

// Dist returns the precomputed distance between tasks i and j.
func (c *RoundContext) Dist(i, j int) float64 { return c.dist[i*c.n+j] }
