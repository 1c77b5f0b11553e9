package selection

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// FuzzSolverEquivalence fuzzes random selection instances — small ones
// where the exact solvers are feasible, dense ones past the DP cap, and
// clustered ones past Auto's beam band — and cross-checks the solvers
// against each other and against the problem's feasibility constraints:
//
//   - every plan respects the travel budget including per-task overhead,
//     visits no task twice, and has consistent accounting
//     (checkPlanInvariants plus budgetUsed);
//   - on small instances DP and BruteForce, both exact, agree on the
//     optimal profit; DP dominates Greedy; and the beam matches the DP
//     optimum within 1e-6 (its exact-regime delegation contract);
//   - past BruteForce's cap, while at most DefaultAutoThreshold
//     candidates survive the reach filter (the rest of the DP's band),
//     the DP dominates the beam, 2-opt and Greedy;
//   - Auto hands off exactly: its plan equals the DP's while at most
//     DefaultAutoThreshold candidates survive the reach filter, a
//     standalone Beam{}'s up to DefaultAutoBeamMaxTasks, and
//     TwoOptGreedy's beyond;
//   - at every size, 2-opt never falls below the Greedy plan it
//     improves, and the beam never falls below either heuristic.
//
// The generator parameters (not raw candidate bytes) are fuzzed: the
// candidate geometry comes from a seeded stats.RNG, so every interesting
// input is reproducible from six scalars and the corpus stays readable.
// shape's bits reshape the drawn instance: shapeNonPositive turns one
// reward to ≤ 0, shapeEdge puts one task exactly at the budget edge (its
// direct distance plus the per-task overhead equals the budget), and
// shapeCrowd draws DefaultAutoBeamMaxTasks+1 or more tasks inside the
// user's reach, so Auto runs its last rung, and shapeBreakEven prices the
// candidates within a few ulps of the walk to them (see breakEven),
// where the DP's no-profit screen (noProfit) has nothing to spare:
// whenever the screen fires, the unscreened DP (DP.run) and BruteForce
// must both find nothing that pays. The committed seed corpus in
// testdata/fuzz/FuzzSolverEquivalence covers the edge regimes: zero
// tasks, zero budget, zero cost, heavy per-task overhead, a dense
// high-reward instance, m = 16 boards at a tight and a near-unbounded
// budget (the two edges of the DP's budget frontier at Auto's
// threshold), the beyond-DP densities (m = 30..80), each shape bit in
// the DP, beam and greedy bands, a crowd past the beam band, and
// break-even instances with and without a per-task overhead.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add(int64(1), 4, 800.0, 0.002, 0.0, uint8(0))
	f.Add(int64(2024), 7, 1500.0, 0.01, 30.0, uint8(0))
	f.Add(int64(-9), 0, 100.0, 0.0, 0.0, uint8(0))
	f.Add(int64(7), 6, 0.0, 0.005, 5.0, uint8(0))
	f.Add(int64(42), 5, 3000.0, 0.02, 120.0, uint8(0))
	// Dense boards beyond the DP cap: the beam's home regime.
	f.Add(int64(11), 30, 2500.0, 0.004, 0.0, uint8(0))
	f.Add(int64(-77), 55, 1800.0, 0.008, 40.0, uint8(0))
	f.Add(int64(314), 80, 2900.0, 0.001, 10.0, uint8(0))
	// A non-positive reward and a task at the budget edge, in the exact,
	// DP and beam bands, and a crowd past the beam band.
	f.Add(int64(5), 8, 700.0, 0.003, 20.0, shapeNonPositive|shapeEdge)
	f.Add(int64(16), 16, 2999.0, 0.001, 0.0, shapeNonPositive|shapeEdge)
	f.Add(int64(33), 40, 2200.0, 0.004, 15.0, shapeNonPositive|shapeEdge)
	f.Add(int64(64), 3, 900.0, 0.002, 25.0, shapeCrowd|shapeNonPositive|shapeEdge)
	// Rewards within ulps of the straight walk, with and without a
	// per-task overhead; a zero screen margin fires wrongly on each.
	f.Add(int64(120), 1, 500.0, 0.0, 150.0, shapeBreakEven)
	f.Add(int64(281), 2, 500.0, 0.001, 150.0, shapeBreakEven)
	f.Add(int64(222), 3, 500.0, 0.002, 50.0, shapeBreakEven)
	f.Add(int64(108), 9, 500.0, 0.008, 0.0, shapeBreakEven)
	f.Fuzz(func(t *testing.T, seed int64, n int, budget, costPerMeter, perTask float64, shape uint8) {
		if !finite(budget) || !finite(costPerMeter) || !finite(perTask) {
			t.Skip("non-finite parameters are rejected by Problem.Validate")
		}
		// Map the fuzzed scalars into the valid problem domain so every
		// input exercises the solvers rather than Validate's error paths.
		// Sizes 0..80 span the DP and beam bands; the exact oracles only
		// run where they are feasible (BruteForce caps at 9).
		nTasks := abs(n) % 81
		budget = math.Mod(math.Abs(budget), 3000)
		costPerMeter = math.Mod(math.Abs(costPerMeter), 0.02)
		perTask = math.Mod(math.Abs(perTask), 200)
		crowd := shape&shapeCrowd != 0
		if crowd {
			nTasks += DefaultAutoBeamMaxTasks + 8
		}

		rng := stats.NewRNG(seed)
		p := Problem{
			Start:           geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			MaxDistance:     budget,
			CostPerMeter:    costPerMeter,
			PerTaskDistance: perTask,
		}
		// A crowd lies in the disk the reach test keeps (up to an ulp or
		// so of rounding at its rim).
		radius := math.Max(budget-perTask, 0)
		for i := 0; i < nTasks; i++ {
			loc := geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
			if crowd {
				r, a := radius*rng.Float64(), 2*math.Pi*rng.Float64()
				loc = geo.Pt(p.Start.X+r*math.Cos(a), p.Start.Y+r*math.Sin(a))
			}
			p.Candidates = append(p.Candidates, Candidate{
				ID:       task.ID(i + 1),
				Location: loc,
				Reward:   rng.Uniform(0, 5),
			})
		}
		if shape&shapeNonPositive != 0 && nTasks > 1 {
			p.Candidates[1].Reward = -p.Candidates[1].Reward
		}
		if shape&shapeEdge != 0 && nTasks > 0 {
			// Candidate 0 moves to the rim of the reach disk, and the
			// budget is re-derived from it the way the reach test sums
			// it, so that task fits with nothing to spare.
			a := 2 * math.Pi * rng.Float64()
			loc := geo.Pt(p.Start.X+radius*math.Cos(a), p.Start.Y+radius*math.Sin(a))
			p.Candidates[0].Location = loc
			p.MaxDistance = p.Start.Dist(loc) + perTask
		}
		if shape&shapeBreakEven != 0 {
			breakEven(&p, rng)
		}
		var r reach
		r.filter(&p)
		m := len(r.idxs)

		algs := []Algorithm{&Greedy{}, &TwoOptGreedy{}, &Beam{}, &Auto{}}
		exact := nTasks < BruteForceMaxTasks
		dpBand := !exact && m <= DefaultAutoThreshold
		if exact {
			algs = append(algs, &BruteForce{})
		}
		if m <= DefaultAutoThreshold {
			algs = append(algs, &DP{})
		}
		plans := map[string]Plan{}
		for _, alg := range algs {
			pl, err := alg.Select(p)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			checkPlanInvariants(t, p, pl)
			if used := p.budgetUsed(pl); used > p.MaxDistance+1e-9 {
				t.Fatalf("%s: plan uses budget %v (travel + per-task overhead) > MaxDistance %v",
					alg.Name(), used, p.MaxDistance)
			}
			if pl.Profit < 0 {
				t.Fatalf("%s: negative profit %v; the empty plan is always available", alg.Name(), pl.Profit)
			}
			plans[alg.Name()] = pl
		}

		// The screen stands in for the DP wherever the DP runs, so when it
		// fires the DP itself and BruteForce must agree that nothing pays.
		if m > 0 && m <= DefaultAutoThreshold && noProfit(&p, &r) {
			var dp DP
			if pl := dp.run(&p, &r); !pl.Empty() {
				t.Fatalf("no-profit screen fired but the DP selects %v with profit %v", pl.Order, pl.Profit)
			}
			if pl, ok := plans[(&BruteForce{}).Name()]; ok && !pl.Empty() {
				t.Fatalf("no-profit screen fired but BruteForce selects %v with profit %v", pl.Order, pl.Profit)
			}
		}

		gr, to := plans[(&Greedy{}).Name()], plans[(&TwoOptGreedy{}).Name()]
		beam := plans[(&Beam{}).Name()]
		if to.Profit < gr.Profit-1e-9 {
			t.Fatalf("2-opt profit %v < Greedy %v: improvement pass made the plan worse", to.Profit, gr.Profit)
		}
		if beam.Profit < gr.Profit-1e-9 {
			t.Fatalf("beam profit %v < Greedy %v: beam fell through its greedy floor", beam.Profit, gr.Profit)
		}
		if beam.Profit < to.Profit-1e-9 {
			t.Fatalf("beam profit %v < greedy+2opt %v: beam fell through its 2-opt floor", beam.Profit, to.Profit)
		}
		if exact {
			dp, bf := plans[(&DP{}).Name()], plans[(&BruteForce{}).Name()]
			if math.Abs(dp.Profit-bf.Profit) > 1e-6 {
				t.Fatalf("exact solvers disagree: DP profit %v, BruteForce %v", dp.Profit, bf.Profit)
			}
			if dp.Profit < gr.Profit-1e-9 {
				t.Fatalf("DP profit %v < Greedy %v: optimal solver dominated by heuristic", dp.Profit, gr.Profit)
			}
			if math.Abs(beam.Profit-dp.Profit) > 1e-6 {
				t.Fatalf("beam profit %v not within 1e-6 of DP optimum %v on %d candidates",
					beam.Profit, dp.Profit, nTasks)
			}
		}
		if dpBand {
			dp := plans[(&DP{}).Name()]
			for _, h := range []Plan{beam, to, gr} {
				if dp.Profit < h.Profit-1e-9 {
					t.Fatalf("DP profit %v < heuristic profit %v on %d candidates: optimal solver dominated",
						dp.Profit, h.Profit, nTasks)
				}
			}
		}

		// Auto's hand-off, by the filtered count its ladder dispatches on.
		auto := plans[(&Auto{}).Name()]
		want, rung := to, "greedy+2opt"
		switch {
		case m <= DefaultAutoThreshold:
			want, rung = plans[(&DP{}).Name()], "dp"
		case m <= DefaultAutoBeamMaxTasks:
			want, rung = beam, "beam"
		}
		if !reflect.DeepEqual(auto, want) {
			t.Fatalf("Auto plan %+v != %s plan %+v on %d filtered candidates (thresholds %d, %d)",
				auto, rung, want, m, DefaultAutoThreshold, DefaultAutoBeamMaxTasks)
		}
	})
}

// Instance shapes for FuzzSolverEquivalence.
const (
	shapeNonPositive uint8 = 1 << iota // candidate 1's reward negated
	shapeEdge                          // candidate 0 exactly at the budget edge
	shapeCrowd                         // past the beam band, all within reach
	shapeBreakEven                     // rewards within ulps of the walk; overrides the bits above
)

// breakEven reshapes p so that noProfit's bound sits within a few ulps
// of zero. The candidates lie on one ray from the start, at up to 5 km,
// and a meter costs 1 to 3, so one rounding of a cost is worth more than
// the solvers' 1e-12 tolerance. In order of distance from the start,
// each candidate's reward pays the extra straight walk beyond the one
// before it, nudged by up to three ulps either way, so every prefix of
// the candidates about breaks even; in half the instances every reward
// then falls short by another 1024 ulps, which the screen must catch.
// The drawn per-task overhead, zero in some corpus entries, is scaled by
// 1e4, so the DP's travel (its path budget minus the overheads) cancels
// and rounds at the overhead's magnitude. The budget fits every
// candidate.
func breakEven(p *Problem, rng *stats.RNG) {
	a := 2 * math.Pi * rng.Float64()
	p.CostPerMeter = 1 + 100*p.CostPerMeter
	p.PerTaskDistance *= 1e4
	far := 0.0
	for i := range p.Candidates {
		t := rng.Uniform(0, 5000)
		p.Candidates[i].Location = geo.Pt(p.Start.X+t*math.Cos(a), p.Start.Y+t*math.Sin(a))
		far = math.Max(far, p.Start.Dist(p.Candidates[i].Location))
	}
	p.MaxDistance = far + float64(len(p.Candidates)+1)*p.PerTaskDistance
	byDist := make([]int, len(p.Candidates))
	for i := range byDist {
		byDist[i] = i
	}
	dist := func(i int) float64 { return p.Start.Dist(p.Candidates[i].Location) }
	slices.SortStableFunc(byDist, func(i, j int) int { return cmp.Compare(dist(i), dist(j)) })
	short := 1024 * rng.Intn(2)
	prev := 0.0
	for _, i := range byDist {
		walk := p.CostPerMeter * dist(i)
		r := walk - prev
		prev = walk
		for k := rng.Intn(7) - 3 - short; k != 0; {
			if k > 0 {
				r, k = math.Nextafter(r, math.Inf(1)), k-1
			} else {
				r, k = math.Nextafter(r, math.Inf(-1)), k+1
			}
		}
		p.Candidates[i].Reward = r
	}
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func abs(n int) int {
	if n < 0 {
		if n == math.MinInt {
			return 0
		}
		return -n
	}
	return n
}
