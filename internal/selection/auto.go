package selection

// Auto's dispatch ladder thresholds.
const (
	// DefaultAutoThreshold is the largest filtered instance Auto solves
	// exactly. It is deliberately below DefaultDPMaxTasks: the DP's time
	// and memory scale with the number of budget-feasible subsets, which
	// at an unbounded budget is all 2^m of them (a ~9.4 MB table and
	// ~40 ms per solve at m = 16, ~190 MB at m = 20; tight budgets cost
	// far less, see DP), and Auto runs once per user per round, so the
	// exact solver's worst case must stay cheap.
	DefaultAutoThreshold = 16

	// DefaultAutoBeamMaxTasks is the largest filtered instance Auto
	// routes to the beam solver; beyond it the greedy + 2-opt ladder
	// takes over. The BENCH_beam.json grid (m = 10..200) puts the beam
	// at ~1 ms per solve at m = 200 with strictly better profit than
	// greedy + 2-opt at every density — the cutoff exists so an
	// adversarial board (thousands of reachable tasks in one travel
	// radius) degrades to the O(m^2) heuristic instead of an unbounded
	// O(Width x m^2) search, not because the beam loses its edge first.
	DefaultAutoBeamMaxTasks = 512
)

// Auto dispatches each instance to the cheapest solver that keeps reward
// quality: the optimal DP when the (reachability-filtered) instance is
// small enough, the beam search in the mid band past the exact
// threshold, and greedy + 2-opt only as the last resort on boards too
// dense even for the beam. This mirrors the paper's guidance — DP for
// small task sets, heuristics at crowdsensing scale — with the beam
// covering the dense-urban regime (100+ open tasks in range) where pure
// greedy leaves measurable profit on the table.
//
// Auto owns one instance of each ladder solver so their scratch persists
// across calls; like them it is not safe for concurrent use.
type Auto struct {
	// Threshold is the largest filtered instance solved exactly; zero
	// means DefaultAutoThreshold, values above DPHardMaxTasks route the
	// excess instances to the beam (the DP solver clamps there anyway).
	Threshold int
	// BeamWidth is the beam width used in the mid band; zero means
	// DefaultBeamWidth.
	BeamWidth int
	// BeamImprove is the number of 2-opt / or-opt polish rounds the beam
	// runs; zero means DefaultBeamImprove.
	BeamImprove int

	dp     DP
	beam   Beam
	greedy Greedy
	reach  reach
	order  []int
}

var _ Algorithm = (*Auto)(nil)

// Name implements Algorithm.
func (*Auto) Name() string { return "auto" }

// Select implements Algorithm.
func (a *Auto) Select(p Problem) (Plan, error) {
	threshold := a.Threshold
	if threshold <= 0 {
		threshold = DefaultAutoThreshold
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	// One filter per solve: the rung it dispatches to (and the beam's
	// exact band and greedy floor) reuse its indices and start distances.
	a.reach.filter(&p)
	m := len(a.reach.idxs)
	if m <= min(threshold, DPHardMaxTasks) {
		a.dp.MaxTasks = threshold
		return a.dp.solve(&p, &a.reach)
	}
	if m <= DefaultAutoBeamMaxTasks {
		a.beam.Width = a.BeamWidth
		a.beam.Improve = a.BeamImprove
		return a.beam.solve(&p, &a.reach)
	}
	// Last resort past the beam band: greedy with the cheap 2-opt
	// order-improvement pass over Auto-owned scratch. (Returning the raw
	// greedy order here was a bug: large instances got a strictly worse
	// route than TwoOptGreedy would produce for the same O(m^2) greedy
	// cost, exactly where route quality matters most.)
	a.order = append(a.order[:0], a.greedy.orderOf(&p, &a.reach)...)
	improveOrder(&p, a.order)
	return buildPlan(&p, a.order), nil
}
