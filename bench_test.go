package paydemand_test

import (
	"fmt"
	"testing"

	"paydemand"

	"paydemand/internal/experiments"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
)

// Benchmarks that regenerate the paper's tables and figures. Each bench
// runs the corresponding experiment at a reduced trial count (benchmarks
// time one run; use cmd/experiments -trials 100 for paper-fidelity
// averages) and reports the headline numbers as custom metrics so the
// paper-vs-measured comparison appears directly in the bench output.

// benchOpts keeps figure benchmarks affordable inside `go test -bench`.
func benchOpts() experiments.Options {
	return experiments.Options{
		Trials:    5,
		Seed:      1,
		UserSweep: []int{40, 100, 140},
	}
}

// runFigure executes a figure experiment b.N times, reporting selected
// points as metrics.
func runFigure(b *testing.B, id string, report func(b *testing.B, f experiments.Figure)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f)
		}
	}
}

// seriesPoint returns series name's Y at the given X.
func seriesPoint(b *testing.B, f experiments.Figure, name string, x float64) float64 {
	b.Helper()
	for _, s := range f.Series {
		if s.Name != name {
			continue
		}
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i]
			}
		}
	}
	b.Fatalf("%s: no point %v in series %q", f.ID, x, name)
	return 0
}

// BenchmarkTableII_AHPWeights regenerates Table II: deriving the criteria
// weights from the Table I pairwise comparison matrix.
func BenchmarkTableII_AHPWeights(b *testing.B) {
	var w [3]float64
	for i := 0; i < b.N; i++ {
		w = paydemand.PaperAHPMatrix().PaperWeights()
	}
	b.ReportMetric(w[0], "w1_paper_0.648")
	b.ReportMetric(w[1], "w2_paper_0.230")
	b.ReportMetric(w[2], "w3_paper_0.122")
}

// BenchmarkFig5a_ProfitDPvsGreedy regenerates Fig. 5(a): average profit
// per user at round 2 for the optimal DP and greedy selections.
func BenchmarkFig5a_ProfitDPvsGreedy(b *testing.B) {
	runFigure(b, "fig5a", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "dp", 100), "dp_profit_100users")
		b.ReportMetric(seriesPoint(b, f, "greedy", 100), "greedy_profit_100users")
	})
}

// BenchmarkFig5b_ProfitDifferenceBoxplot regenerates Fig. 5(b): the
// distribution of per-user profit differences (dp - greedy).
func BenchmarkFig5b_ProfitDifferenceBoxplot(b *testing.B) {
	runFigure(b, "fig5b", func(b *testing.B, f experiments.Figure) {
		box := f.Boxplots[0]
		b.ReportMetric(box.Median, "median_diff")
		b.ReportMetric(box.Max, "max_diff")
		b.ReportMetric(float64(box.N), "samples")
	})
}

// BenchmarkFig6a_CoverageVsUsers regenerates Fig. 6(a).
func BenchmarkFig6a_CoverageVsUsers(b *testing.B) {
	runFigure(b, "fig6a", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 100), "ondemand_cov%_paper_100")
		b.ReportMetric(seriesPoint(b, f, "fixed", 100), "fixed_cov%_paper_~96")
		b.ReportMetric(seriesPoint(b, f, "steered", 100), "steered_cov%_paper_100")
	})
}

// BenchmarkFig6b_CoverageVsRounds regenerates Fig. 6(b).
func BenchmarkFig6b_CoverageVsRounds(b *testing.B) {
	runFigure(b, "fig6b", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 15), "ondemand_cov%_round15")
		b.ReportMetric(seriesPoint(b, f, "fixed", 15), "fixed_cov%_round15")
	})
}

// BenchmarkFig7a_CompletenessVsUsers regenerates Fig. 7(a).
func BenchmarkFig7a_CompletenessVsUsers(b *testing.B) {
	runFigure(b, "fig7a", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 100), "ondemand_compl%_paper_~100")
		b.ReportMetric(seriesPoint(b, f, "fixed", 100), "fixed_compl%_paper_~70")
		b.ReportMetric(seriesPoint(b, f, "steered", 100), "steered_compl%_paper_worst")
	})
}

// BenchmarkFig7b_CompletenessVsRounds regenerates Fig. 7(b).
func BenchmarkFig7b_CompletenessVsRounds(b *testing.B) {
	runFigure(b, "fig7b", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 15), "ondemand_compl%_round15")
		b.ReportMetric(seriesPoint(b, f, "steered", 15), "steered_compl%_round15")
	})
}

// BenchmarkFig8a_AvgMeasurementsVsUsers regenerates Fig. 8(a).
func BenchmarkFig8a_AvgMeasurementsVsUsers(b *testing.B) {
	runFigure(b, "fig8a", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 100), "ondemand_avg_paper_~20")
		b.ReportMetric(seriesPoint(b, f, "fixed", 100), "fixed_avg")
		b.ReportMetric(seriesPoint(b, f, "steered", 100), "steered_avg")
	})
}

// BenchmarkFig8b_MeasurementsPerRound regenerates Fig. 8(b).
func BenchmarkFig8b_MeasurementsPerRound(b *testing.B) {
	runFigure(b, "fig8b", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "steered", 1), "steered_round1_largest")
		b.ReportMetric(seriesPoint(b, f, "on-demand", 5), "ondemand_round5_stillactive")
		b.ReportMetric(seriesPoint(b, f, "fixed", 5), "fixed_round5_paper_0")
	})
}

// BenchmarkFig9a_VarianceVsUsers regenerates Fig. 9(a).
func BenchmarkFig9a_VarianceVsUsers(b *testing.B) {
	runFigure(b, "fig9a", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 100), "ondemand_var_paper_lowest")
		b.ReportMetric(seriesPoint(b, f, "fixed", 100), "fixed_var")
		b.ReportMetric(seriesPoint(b, f, "steered", 100), "steered_var")
	})
}

// BenchmarkFig9b_RewardPerMeasurement regenerates Fig. 9(b).
func BenchmarkFig9b_RewardPerMeasurement(b *testing.B) {
	runFigure(b, "fig9b", func(b *testing.B, f experiments.Figure) {
		b.ReportMetric(seriesPoint(b, f, "on-demand", 100), "ondemand_$_paper_lowest")
		b.ReportMetric(seriesPoint(b, f, "fixed", 100), "fixed_$")
		b.ReportMetric(seriesPoint(b, f, "steered", 100), "steered_$_paper_~2.3")
	})
}

// --- Micro-benchmarks of the core algorithms -----------------------------

// selectionProblem builds a random m-task instance.
func selectionProblem(rng *stats.RNG, m int) selection.Problem {
	p := selection.Problem{
		Start:        paydemand.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
		MaxDistance:  1200,
		CostPerMeter: 0.002,
	}
	for i := 0; i < m; i++ {
		p.Candidates = append(p.Candidates, selection.Candidate{
			ID:       paydemand.TaskID(i + 1),
			Location: paydemand.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
			Reward:   rng.Uniform(0.5, 2.5),
		})
	}
	return p
}

// BenchmarkSelectionDP measures the optimal solver's exponential scaling
// (Theorem 2: O(m^2 2^m)).
func BenchmarkSelectionDP(b *testing.B) {
	for _, m := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := stats.NewRNG(1)
			problems := make([]selection.Problem, 16)
			for i := range problems {
				problems[i] = selectionProblem(rng, m)
			}
			alg := &selection.DP{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Select(problems[i%len(problems)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectionGreedy measures the heuristic's polynomial scaling
// (Theorem 3: O(m^2)).
func BenchmarkSelectionGreedy(b *testing.B) {
	for _, m := range []int{8, 20, 50, 200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := stats.NewRNG(1)
			problems := make([]selection.Problem, 16)
			for i := range problems {
				problems[i] = selectionProblem(rng, m)
			}
			alg := &selection.Greedy{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Select(problems[i%len(problems)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRewardUpdate measures one full on-demand reward update for a
// 20-task round (the platform's per-round cost).
func BenchmarkRewardUpdate(b *testing.B) {
	scheme, err := paydemand.NewRewardScheme(1000, 400, 0.5, 5)
	if err != nil {
		b.Fatal(err)
	}
	mech, err := paydemand.NewOnDemandMechanism(scheme)
	if err != nil {
		b.Fatal(err)
	}
	views := make([]paydemand.TaskView, 20)
	for i := range views {
		views[i] = paydemand.TaskView{
			ID:        paydemand.TaskID(i + 1),
			Deadline:  5 + i%11,
			Required:  20,
			Received:  i,
			Neighbors: i % 7,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make(map[paydemand.TaskID]float64, len(views))
		if err := mech.RewardsInto(&paydemand.RoundInput{Round: 1 + i%15, Views: views}, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullCampaign measures one complete paper-default simulation.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paydemand.Run(paydemand.Config{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
