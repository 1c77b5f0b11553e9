package paydemand_test

import (
	"fmt"
	"testing"

	"paydemand"

	"paydemand/internal/geo"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the AHP
// weighting (vs equal or single-factor weights), the demand-level
// granularity N, the per-round time budget, and the selection algorithm.
// Each reports the campaign metrics affected by the choice.

// ablationTrials averages a configuration over a few seeds.
const ablationTrials = 10

func runAblation(b *testing.B, cfg paydemand.Config) metrics.Summary {
	b.Helper()
	var agg paydemand.Aggregator
	for trial := 0; trial < ablationTrials; trial++ {
		res, err := paydemand.Run(cfg, int64(trial)+100)
		if err != nil {
			b.Fatal(err)
		}
		agg.Add(res)
	}
	return agg.Summary()
}

// BenchmarkAblationWeights compares the AHP-derived demand weights against
// the no-AHP (equal weights) and single-factor ablations.
func BenchmarkAblationWeights(b *testing.B) {
	variants := []paydemand.MechanismKind{
		paydemand.MechanismOnDemand,
		paydemand.MechanismEqualWeights,
		paydemand.MechanismDeadlineOnly,
		paydemand.MechanismProgressOnly,
		paydemand.MechanismNeighborsOnly,
	}
	for _, mech := range variants {
		b.Run(mech.String(), func(b *testing.B) {
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				s = runAblation(b, paydemand.Config{Mechanism: mech})
			}
			b.ReportMetric(s.OverallCompleteness*100, "completeness%")
			b.ReportMetric(s.VarianceMeasurements, "variance")
			b.ReportMetric(s.AvgRewardPerMeasurement, "$/meas")
		})
	}
}

// BenchmarkAblationLevels sweeps the demand-level granularity N of
// Table III. More levels give finer price discrimination; N=1 collapses
// on-demand into a flat-rate mechanism.
func BenchmarkAblationLevels(b *testing.B) {
	for _, n := range []int{1, 2, 5, 10, 20} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := paydemand.Config{DemandLevels: n}
			// Keep the budget constraint satisfiable: with B=1000 and
			// Σφ=400, Eq. 9 needs λ(N-1) < 2.5.
			cfg.RewardLambda = 2.0 / float64(n)
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				s = runAblation(b, cfg)
			}
			b.ReportMetric(s.OverallCompleteness*100, "completeness%")
			b.ReportMetric(s.AvgRewardPerMeasurement, "$/meas")
		})
	}
}

// BenchmarkAblationTimeBudget sweeps the per-round user time budget, the
// parameter the paper never states (DESIGN.md assumption 2).
func BenchmarkAblationTimeBudget(b *testing.B) {
	for _, budget := range []float64{150, 300, 600, 1200} {
		b.Run(fmt.Sprintf("B=%vs", budget), func(b *testing.B) {
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				s = runAblation(b, paydemand.Config{UserTimeBudget: budget})
			}
			b.ReportMetric(s.OverallCompleteness*100, "completeness%")
			b.ReportMetric(s.AvgMeasurements, "avg_meas")
		})
	}
}

// BenchmarkAblationSelection compares the selection algorithms inside the
// full campaign (profit and runtime tradeoff of Section V).
func BenchmarkAblationSelection(b *testing.B) {
	for _, alg := range []paydemand.AlgorithmKind{
		paydemand.AlgorithmDP,
		paydemand.AlgorithmGreedy,
		paydemand.AlgorithmTwoOpt,
		paydemand.AlgorithmAuto,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			var s metrics.Summary
			for i := 0; i < b.N; i++ {
				s = runAblation(b, paydemand.Config{Algorithm: alg})
			}
			b.ReportMetric(s.AvgUserProfit, "avg_profit")
			b.ReportMetric(s.OverallCompleteness*100, "completeness%")
		})
	}
}

// BenchmarkGridIndex measures the spatial index against the brute-force
// neighbor count at the simulator's round scale.
func BenchmarkGridIndex(b *testing.B) {
	rng := stats.NewRNG(1)
	area := paydemand.Square(3000)
	locs := make([]paydemand.Point, 1000)
	for i := range locs {
		locs[i] = paydemand.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
	}
	b.Run("build+query20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grid, err := newGrid(area, 500, locs)
			if err != nil {
				b.Fatal(err)
			}
			for q := 0; q < 20; q++ {
				grid.CountWithin(locs[q], 500)
			}
		}
	})
}

// BenchmarkObserverOverhead measures the cost the observer hook adds to a
// campaign.
func BenchmarkObserverOverhead(b *testing.B) {
	cfg := paydemand.Config{}
	cfg.Workload.NumUsers = 40
	b.Run("nil-observer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := sim.New(cfg, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("counting-observer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := sim.New(cfg, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(&countingObserver{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingObserver counts UserPlanned events.
type countingObserver struct {
	sim.BaseObserver
	n int
}

func (c *countingObserver) UserPlanned(int, int, selection.Problem, selection.Plan) { c.n++ }

// newGrid builds the spatial index used by the reward update.
func newGrid(area paydemand.Rect, cell float64, pts []paydemand.Point) (*geo.GridIndex, error) {
	return geo.NewGridIndex(area, cell, pts)
}
