package selection

import "math"

// Greedy is the paper's efficient task selection heuristic (Section V-B):
// from its current location the user repeatedly picks the task with the
// largest marginal profit (reward minus the cost of moving there), subject
// to the remaining travel budget, until no task yields a positive marginal
// profit. Complexity O(m^2) (Theorem 3).
//
// A Greedy value keeps scratch buffers between calls so repeated Selects
// are allocation-free; it is not safe for concurrent use.
type Greedy struct {
	reach reach // selectOrder's own filter; Auto and Beam pass theirs
	taken []bool
	order []int
}

var _ Algorithm = (*Greedy)(nil)

// Name implements Algorithm.
func (*Greedy) Name() string { return "greedy" }

// Select implements Algorithm.
func (g *Greedy) Select(p Problem) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return buildPlan(&p, g.selectOrder(&p)), nil
}

// selectOrder filters a validated problem's candidates and runs the
// greedy loop over them (see orderOf).
func (g *Greedy) selectOrder(p *Problem) []int {
	g.reach.filter(p)
	return g.orderOf(p, &g.reach)
}

// orderOf runs the greedy loop over a validated problem's filtered
// candidates r and returns the chosen candidate indices in visiting
// order. The returned slice is solver-owned scratch, valid until the next
// call.
func (g *Greedy) orderOf(p *Problem, r *reach) []int {
	idxs := r.idxs
	g.taken = grow(g.taken, len(idxs))
	taken := g.taken
	for k := range taken {
		taken[k] = false
	}
	// cur == -1 denotes the user's start location; afterwards it is the
	// candidate index of the last visited task.
	cur := -1
	budget := p.MaxDistance
	g.order = g.order[:0]
	for {
		best := -1
		bestGain := 0.0
		bestDist := 0.0
		for k, idx := range idxs {
			if taken[k] {
				continue
			}
			c := p.Candidates[idx]
			d := r.start[k]
			if cur >= 0 {
				d = p.candDist(cur, idx)
			}
			if d+p.PerTaskDistance > budget {
				continue
			}
			gain := c.Reward - d*p.CostPerMeter
			// Strictly positive marginal profit (Theorem 3): any gain > 0
			// qualifies, however small. The epsilon only separates "clearly
			// better" from "tied"; ties break toward the closer task for
			// determinism.
			if gain <= 0 {
				continue
			}
			better := best < 0 || gain > bestGain+1e-12
			tied := best >= 0 && math.Abs(gain-bestGain) <= 1e-12 && d < bestDist
			if better || tied {
				best = k
				bestGain = gain
				bestDist = d
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		g.order = append(g.order, idxs[best])
		cur = idxs[best]
		budget -= bestDist + p.PerTaskDistance
	}
	return g.order
}
