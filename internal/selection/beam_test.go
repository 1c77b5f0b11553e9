package selection

import (
	"math"
	"reflect"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// denseProblem builds an m-candidate instance dense enough that many
// tasks survive reachability filtering: a 1 km square with a multi-stop
// travel budget and rewards comfortably above typical leg costs.
func denseProblem(rng *stats.RNG, m int) Problem {
	p := Problem{
		Start:        geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
		MaxDistance:  rng.Uniform(1000, 4000),
		CostPerMeter: rng.Uniform(0, 0.01),
	}
	for i := 0; i < m; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			Reward:   rng.Uniform(0, 5),
		})
	}
	return p
}

// crowdProblem is a denseProblem past Auto's beam band: every one of its
// DefaultAutoBeamMaxTasks+8 candidates is in reach, so Auto dispatches it
// to its last rung, greedy + 2-opt.
func crowdProblem(rng *stats.RNG) Problem {
	p := denseProblem(rng, DefaultAutoBeamMaxTasks+8)
	p.MaxDistance = 4000 // beyond the 1000 m square's diagonal
	return p
}

// TestBeamDominatesTwoOptGreedy pins the beam's floor contract on dense
// instances beyond the DP cap: profit >= greedy + 2-opt >= greedy, and
// the plan is always feasible.
func TestBeamDominatesTwoOptGreedy(t *testing.T) {
	rng := stats.NewRNG(4242)
	beam := &Beam{}
	to := &TwoOptGreedy{}
	gr := &Greedy{}
	for trial := 0; trial < 150; trial++ {
		p := denseProblem(rng, rng.IntBetween(DPHardMaxTasks+4, 90))
		bp, err := beam.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := to.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := gr.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanInvariants(t, p, bp)
		if used := p.budgetUsed(bp); used > p.MaxDistance+1e-9 {
			t.Fatalf("trial %d: beam plan uses budget %v > %v", trial, used, p.MaxDistance)
		}
		if bp.Profit < tp.Profit-1e-9 {
			t.Fatalf("trial %d: beam profit %v < greedy+2opt %v", trial, bp.Profit, tp.Profit)
		}
		if bp.Profit < gp.Profit-1e-9 {
			t.Fatalf("trial %d: beam profit %v < greedy %v", trial, bp.Profit, gp.Profit)
		}
	}
}

// TestBeamExactOnSmallInstances pins the exact-regime delegation: at or
// below BeamExactMaxTasks filtered candidates the beam must return the DP
// optimum (profit equal within 1e-6), which is what lets the fuzz harness
// assert beam-vs-DP equality wherever DP runs.
func TestBeamExactOnSmallInstances(t *testing.T) {
	rng := stats.NewRNG(17)
	beam := &Beam{}
	dp := &DP{}
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, BeamExactMaxTasks)
		bp, err := beam.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		op, err := dp.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bp.Profit-op.Profit) > 1e-6 {
			t.Fatalf("trial %d: beam profit %v != DP optimum %v on %d candidates",
				trial, bp.Profit, op.Profit, len(p.Candidates))
		}
	}
}

// TestBeamNeverBeatsDP sanity-checks the other direction in the mid band
// where both solvers accept the instance (m in 11..26 after filtering):
// the beam is a heuristic and must not exceed the DP optimum.
func TestBeamNeverBeatsDP(t *testing.T) {
	rng := stats.NewRNG(33)
	beam := &Beam{}
	dp := &DP{}
	for trial := 0; trial < 30; trial++ {
		p := denseProblem(rng, rng.IntBetween(BeamExactMaxTasks+2, 16))
		bp, err := beam.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		op, err := dp.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Profit > op.Profit+1e-6 {
			t.Fatalf("trial %d: beam profit %v exceeds DP optimum %v", trial, bp.Profit, op.Profit)
		}
	}
}

// TestBeamDeterministic: the same instance solved repeatedly — and by a
// fresh instance with cold scratch — yields byte-identical plans.
func TestBeamDeterministic(t *testing.T) {
	rng := stats.NewRNG(88)
	warm := &Beam{}
	for trial := 0; trial < 40; trial++ {
		p := denseProblem(rng, 60)
		first, err := warm.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		again, err := warm.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := (&Beam{}).Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("trial %d: warm re-solve diverged:\n%+v\n%+v", trial, first, again)
		}
		if !reflect.DeepEqual(first, cold) {
			t.Fatalf("trial %d: cold solver diverged:\n%+v\n%+v", trial, first, cold)
		}
	}
}

// TestBeamWidthMonotoneQuality: widening the beam can only change the
// profit by finding better routes — spot-check that a degenerate width of
// 1 never beats the default, and that all widths respect the 2-opt floor.
func TestBeamWidthQuality(t *testing.T) {
	rng := stats.NewRNG(404)
	narrow := &Beam{Width: 1}
	wide := &Beam{Width: 32}
	to := &TwoOptGreedy{}
	for trial := 0; trial < 60; trial++ {
		p := denseProblem(rng, 70)
		np, err := narrow.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := wide.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := to.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if np.Profit < tp.Profit-1e-9 || wp.Profit < tp.Profit-1e-9 {
			t.Fatalf("trial %d: beam under 2-opt floor (w1 %v, w32 %v, floor %v)",
				trial, np.Profit, wp.Profit, tp.Profit)
		}
	}
}

// TestBeamStrictlyImprovesSomewhere: the beam must actually beat greedy +
// 2-opt on a measurable share of dense instances — otherwise the mid band
// of the dispatch ladder would be pointless.
func TestBeamStrictlyImprovesSomewhere(t *testing.T) {
	rng := stats.NewRNG(2718)
	beam := &Beam{}
	to := &TwoOptGreedy{}
	wins := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		p := denseProblem(rng, 60)
		bp, err := beam.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := to.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Profit > tp.Profit+1e-9 {
			wins++
		}
	}
	if wins == 0 {
		t.Fatalf("beam never beat greedy+2opt across %d dense instances", trials)
	}
	t.Logf("beam strictly better on %d/%d dense instances", wins, trials)
}

// TestBeamAllocFree pins the scratch discipline: steady-state beam solves
// allocate only the returned Plan (order + path), matching the DP and
// greedy solvers' contract.
func TestBeamAllocFree(t *testing.T) {
	rng := stats.NewRNG(9)
	p := denseProblem(rng, 60)
	p.CandidatesValid = true // round-validated, as the engine hot loop runs it
	beam := &Beam{}
	if _, err := beam.Select(p); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := beam.Select(p); err != nil {
			t.Fatal(err)
		}
	})
	// buildPlan allocates the returned Order and Path; everything else
	// must come from recycled scratch.
	if allocs > 2 {
		t.Errorf("steady-state beam Select allocates %v times per run, want <= 2 (the returned Plan)", allocs)
	}
}

// TestBeamEdgeCases covers the degenerate regimes.
func TestBeamEdgeCases(t *testing.T) {
	beam := &Beam{}

	empty, err := beam.Select(Problem{Start: geo.Pt(0, 0), MaxDistance: 100})
	if err != nil || !empty.Empty() {
		t.Fatalf("no candidates: plan %+v, err %v", empty, err)
	}

	// Zero budget: nothing reachable, whatever the density.
	p := Problem{Start: geo.Pt(0, 0)}
	for i := 0; i < 40; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID: task.ID(i + 1), Location: geo.Pt(float64(i+1), 0), Reward: 2,
		})
	}
	if plan, err := beam.Select(p); err != nil || !plan.Empty() {
		t.Fatalf("zero budget: plan %+v, err %v", plan, err)
	}

	// Ruinous travel cost: moving anywhere loses money, so the rational
	// plan is empty even with plenty of budget.
	p.MaxDistance = 1e6
	p.CostPerMeter = 1e9
	if plan, err := beam.Select(p); err != nil || !plan.Empty() {
		t.Fatalf("ruinous cost: plan %+v, err %v", plan, err)
	}

	// Invalid problems are rejected like every other solver.
	bad := Problem{Start: geo.Pt(math.NaN(), 0)}
	if _, err := beam.Select(bad); err == nil {
		t.Fatal("NaN start accepted")
	}
}

// TestAutoFallbackRunsTwoOpt is the regression for the over-threshold
// dispatch bug: Auto used to return the raw greedy order past its beam
// band, skipping the cheap 2-opt improvement pass entirely, so large
// instances got a strictly worse route than TwoOptGreedy would produce.
// The instance forces a greedy route with a crossing that 2-opt provably
// removes: near-equal rewards placed so marginal-profit order zig-zags.
func TestAutoFallbackRunsTwoOpt(t *testing.T) {
	// Build an instance whose greedy route 2-opt provably shortens, with
	// enough candidates to clear the beam band.
	rng := stats.NewRNG(123)
	var p Problem
	found := false
	for try := 0; try < 200 && !found; try++ {
		p = crowdProblem(rng)
		gr, err := (&Greedy{}).Select(p)
		if err != nil {
			t.Fatal(err)
		}
		to, err := (&TwoOptGreedy{}).Select(p)
		if err != nil {
			t.Fatal(err)
		}
		found = to.Profit > gr.Profit+1e-9
	}
	if !found {
		t.Fatal("could not generate an instance where 2-opt beats raw greedy")
	}

	ap, err := (&Auto{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := (&Greedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	to, err := (&TwoOptGreedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Profit <= gr.Profit+1e-9 {
		t.Errorf("Auto fallback profit %v does not beat raw greedy %v: 2-opt pass missing", ap.Profit, gr.Profit)
	}
	if !reflect.DeepEqual(ap, to) {
		t.Errorf("Auto fallback plan differs from TwoOptGreedy:\n%+v\n%+v", ap, to)
	}
}

// TestAutoDispatchLadder pins which solver serves each band: the DP plan
// at or below the exact threshold, the beam plan in the mid band, and the
// greedy + 2-opt plan beyond the beam band.
func TestAutoDispatchLadder(t *testing.T) {
	rng := stats.NewRNG(321)

	// Exact band: every reachable instance at most the threshold matches DP.
	small := randomProblem(rng, 10)
	auto := &Auto{}
	ap, err := auto.Select(small)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := (&DP{}).Select(small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ap, dp) {
		t.Errorf("small instance: Auto plan != DP plan:\n%+v\n%+v", ap, dp)
	}

	// Mid band: between the exact threshold and the beam bound, the plan
	// is the beam's (same knobs).
	mid := denseProblem(rng, 40)
	ap, err = auto.Select(mid)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := (&Beam{}).Select(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ap, bp) {
		t.Errorf("mid instance: Auto plan != Beam plan:\n%+v\n%+v", ap, bp)
	}

	// Last resort: past the beam band the plan is greedy + 2-opt.
	big := crowdProblem(rng)
	ap, err = auto.Select(big)
	if err != nil {
		t.Fatal(err)
	}
	to, err := (&TwoOptGreedy{}).Select(big)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ap, to) {
		t.Errorf("big instance: Auto plan != TwoOptGreedy plan:\n%+v\n%+v", ap, to)
	}
}

// TestRelocateOrderShortens exercises the or-opt move directly: on a
// route with an obviously misplaced visit, relocation must shorten the
// walk and preserve the visited set.
func TestRelocateOrderShortens(t *testing.T) {
	// Start at origin; tasks on a line, but the route visits the far one
	// in the middle: 1 -> 3 -> 2 with 3 at x=500 between x=100 and x=200
	// is fine for 2-opt only if reversal helps; a single relocation of
	// index 2 (task at x=500) to the end is the cheapest fix.
	p := Problem{
		Start:       geo.Pt(0, 0),
		MaxDistance: 1e9,
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(100, 0), Reward: 1},
			{ID: 2, Location: geo.Pt(200, 0), Reward: 1},
			{ID: 3, Location: geo.Pt(500, 0), Reward: 1},
		},
	}
	order := []int{0, 2, 1}
	before := orderTravel(&p, order)
	if !relocateOrder(&p, order) {
		t.Fatal("relocation found no improving move")
	}
	after := orderTravel(&p, order)
	if after >= before {
		t.Fatalf("relocation did not shorten: %v -> %v", before, after)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}
