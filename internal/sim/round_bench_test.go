package sim

import (
	"fmt"
	"testing"

	"paydemand/internal/stats"
	"paydemand/internal/workload"
)

// BenchmarkRunRound times the simulation's inner loop — one full sensing
// round: reward update, per-user distributed selection, upload, and
// bookkeeping — over a users x tasks grid. The scenario is generated once
// per configuration; each iteration rebuilds the simulation outside the
// timer and runs the first three rounds inside it, so the measurement
// covers exactly the per-round hot path the round-level cache targets.
func BenchmarkRunRound(b *testing.B) {
	const benchRounds = 3
	grids := []struct{ users, tasks int }{
		{50, 20},
		{200, 20},
		{200, 40},
	}
	for _, alg := range []AlgorithmKind{AlgorithmGreedy, AlgorithmAuto} {
		for _, g := range grids {
			name := fmt.Sprintf("%s/users=%d/tasks=%d", alg, g.users, g.tasks)
			b.Run(name, func(b *testing.B) {
				cfg := Config{
					Workload:  workload.Config{NumUsers: g.users, NumTasks: g.tasks},
					Algorithm: alg,
					Rounds:    benchRounds,
					// Scale the reward budget with the task count so every
					// grid point can fund level-1 rewards (20 tasks matches
					// the paper-default budget of 1000).
					Budget: 50 * float64(g.tasks),
				}
				sc, err := workload.Generate(stats.NewRNG(42), cfg.Workload)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := NewFromScenario(cfg, sc, 7)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for k := 1; k <= benchRounds; k++ {
						if _, err := s.runRound(k, BaseObserver{}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// trialSizes are the two ends of the bench workloads: paper size (100
// users, 20 tasks) and city size (2000 users, 1000 tasks, phi = 10, 25 s
// budget).
var trialSizes = []struct {
	name string
	cfg  Config
}{
	{"paper", Config{}},
	{"city", Config{
		Workload:       workload.Config{NumUsers: 2000, NumTasks: 1000, Required: 10},
		Budget:         25000,
		UserTimeBudget: 25,
	}},
}

// BenchmarkNew times a trial's setup, sim.New: scenario generation,
// board, mechanism, engine and users, with the trial's RNG streams split
// off the seed. At paper size about half of it is seeding the three
// streams it draws from (New's and NewFromScenario's roots and the
// scenario stream; see stats.BenchmarkNewRNG), and a stream the
// configuration never draws from costs no seeding. At city size the
// board's states and the initial users are one allocation each, not one
// per task and per user.
func BenchmarkNew(b *testing.B) {
	for _, sz := range trialSizes {
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(sz.cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrial times whole warm trials, New then Run, as the
// experiments and the bench run them one after another: after the first
// trial, each borrows the engine, solver, RNG streams and round buffers
// the previous one handed back, so its bytes are what the trial keeps
// (plans, contribution records, its TrialResult) plus its setup.
func BenchmarkTrial(b *testing.B) {
	for _, sz := range trialSizes {
		b.Run(sz.name, func(b *testing.B) {
			if _, err := Run(sz.cfg, -1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sz.cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
