package selection

import (
	"fmt"
)

// BruteForceMaxTasks bounds the instances BruteForce accepts; beyond ~9
// tasks the permutation space explodes.
const BruteForceMaxTasks = 9

// BruteForce exhaustively enumerates every ordered subset of candidates
// and returns the feasible plan with maximum profit. It exists as the
// ground-truth oracle for testing the DP solver and is exponential in the
// worst way; do not use it outside tests and tiny instances. Like the
// production solvers it reuses scratch between calls.
type BruteForce struct {
	reach reach
	cur   []int
	used  []bool
}

var _ Algorithm = (*BruteForce)(nil)

// Name implements Algorithm.
func (*BruteForce) Name() string { return "brute-force" }

// Select implements Algorithm.
func (bf *BruteForce) Select(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	bf.reach.filter(&p)
	idxs := bf.reach.idxs
	if len(idxs) > BruteForceMaxTasks {
		return Plan{}, fmt.Errorf("%w: %d candidates, cap %d", ErrTooManyTasks, len(idxs), BruteForceMaxTasks)
	}
	best := Plan{}
	bf.cur = bf.cur[:0]
	bf.used = grow(bf.used, len(idxs))
	for k := range bf.used {
		bf.used[k] = false
	}

	// budgetSoFar includes per-task overhead; travelSoFar is movement only
	// (movement cost applies to travel, not sensing time). last is the
	// candidate index of the previous visit, -1 for the start.
	var recurse func(last int, budgetSoFar, travelSoFar, rewardSoFar float64)
	recurse = func(last int, budgetSoFar, travelSoFar, rewardSoFar float64) {
		profit := rewardSoFar - travelSoFar*p.CostPerMeter
		if profit > best.Profit+1e-12 && len(bf.cur) > 0 {
			best = buildPlan(&p, bf.cur)
		}
		for k, idx := range idxs {
			if bf.used[k] {
				continue
			}
			d := p.legDist(last, idx)
			if budgetSoFar+d+p.PerTaskDistance > p.MaxDistance {
				continue
			}
			bf.used[k] = true
			bf.cur = append(bf.cur, idx)
			recurse(idx, budgetSoFar+d+p.PerTaskDistance, travelSoFar+d, rewardSoFar+p.Candidates[idx].Reward)
			bf.cur = bf.cur[:len(bf.cur)-1]
			bf.used[k] = false
		}
	}
	recurse(-1, 0, 0, 0)
	return best, nil
}
