package selection

import (
	"math"
	"reflect"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// FuzzSolverEquivalence fuzzes random selection instances — small ones
// where the exact solvers are feasible and dense ones past the DP cap —
// and cross-checks the solvers against each other and against the
// problem's feasibility constraints:
//
//   - every plan respects the travel budget including per-task overhead,
//     visits no task twice, and has consistent accounting
//     (checkPlanInvariants plus budgetUsed);
//   - on small instances DP and BruteForce, both exact, agree on the
//     optimal profit; DP dominates Greedy; and the beam matches the DP
//     optimum within 1e-6 (its exact-regime delegation contract);
//   - past BruteForce's cap and up to DefaultAutoThreshold, the rest of
//     the DP's band, the DP dominates the beam, 2-opt and Greedy, and
//     Auto returns exactly the DP's plan;
//   - at every size — including the dense 30..80-candidate regime the
//     beam exists for, where no exact oracle is affordable — 2-opt never
//     falls below the Greedy plan it improves, and the beam never falls
//     below either heuristic.
//
// The generator parameters (not raw candidate bytes) are fuzzed: the
// candidate geometry comes from a seeded stats.RNG, so every interesting
// input is reproducible from five scalars and the corpus stays readable.
// The committed seed corpus in testdata/fuzz/FuzzSolverEquivalence
// covers the edge regimes: zero tasks, zero budget, zero cost, heavy
// per-task overhead, a dense high-reward instance, m = 16 boards at a
// tight and a near-unbounded budget (the two edges of the DP's budget
// frontier at Auto's threshold), and the beyond-DP densities
// (m = 30..80) where only the heuristic invariants apply.
func FuzzSolverEquivalence(f *testing.F) {
	f.Add(int64(1), 4, 800.0, 0.002, 0.0)
	f.Add(int64(2024), 7, 1500.0, 0.01, 30.0)
	f.Add(int64(-9), 0, 100.0, 0.0, 0.0)
	f.Add(int64(7), 6, 0.0, 0.005, 5.0)
	f.Add(int64(42), 5, 3000.0, 0.02, 120.0)
	// Dense boards beyond the DP cap: the beam's home regime.
	f.Add(int64(11), 30, 2500.0, 0.004, 0.0)
	f.Add(int64(-77), 55, 1800.0, 0.008, 40.0)
	f.Add(int64(314), 80, 2900.0, 0.001, 10.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, budget, costPerMeter, perTask float64) {
		if !finite(budget) || !finite(costPerMeter) || !finite(perTask) {
			t.Skip("non-finite parameters are rejected by Problem.Validate")
		}
		// Map the fuzzed scalars into the valid problem domain so every
		// input exercises the solvers rather than Validate's error paths.
		// Sizes 0..80 span both regimes; the exact oracles only run where
		// they are feasible (BruteForce caps at 9).
		nTasks := abs(n) % 81
		budget = math.Mod(math.Abs(budget), 3000)
		costPerMeter = math.Mod(math.Abs(costPerMeter), 0.02)
		perTask = math.Mod(math.Abs(perTask), 200)

		rng := stats.NewRNG(seed)
		p := Problem{
			Start:           geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			MaxDistance:     budget,
			CostPerMeter:    costPerMeter,
			PerTaskDistance: perTask,
		}
		for i := 0; i < nTasks; i++ {
			p.Candidates = append(p.Candidates, Candidate{
				ID:       task.ID(i + 1),
				Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
				Reward:   rng.Uniform(0, 5),
			})
		}

		algs := []Algorithm{&Greedy{}, &TwoOptGreedy{}, &Beam{}}
		exact := nTasks < BruteForceMaxTasks
		dpBand := !exact && nTasks <= DefaultAutoThreshold
		if exact {
			algs = append(algs, &DP{}, &BruteForce{})
		}
		if dpBand {
			algs = append(algs, &DP{}, &Auto{})
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
			if auto := plans[(&Auto{}).Name()]; !reflect.DeepEqual(auto, dp) {
				t.Fatalf("Auto plan %+v != DP plan %+v on %d candidates, within its exact threshold %d",
					auto, dp, nTasks, DefaultAutoThreshold)
			}
		}
	})
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
