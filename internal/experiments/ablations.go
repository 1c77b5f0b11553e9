package experiments

import (
	"fmt"

	"paydemand/internal/metrics"
	"paydemand/internal/sim"
)

// Ablation experiments beyond the paper's figures: they probe the design
// choices DESIGN.md section 7 calls out. Each is a population sweep of
// on-demand variants of Options.Base, plotted as overall completeness.

// onDemandSweep returns a variants function with one on-demand copy of
// opts.Base per value; set adjusts the copy to its value and names it.
func onDemandSweep[T any](values []T, set func(*sim.Config, T) string) func(Options) []namedConfig {
	return func(opts Options) []namedConfig {
		out := make([]namedConfig, len(values))
		for i, v := range values {
			cfg := opts.Base
			cfg.Mechanism = sim.MechanismOnDemand
			out[i] = namedConfig{set(&cfg, v), cfg}
		}
		return out
	}
}

// weightVariant names one demand-weighting mechanism of ablation-weights.
type weightVariant struct {
	name string
	mech sim.MechanismKind
}

func overallCompleteness(s metrics.Summary) float64 { return s.OverallCompleteness * 100 }

// ablationFigures share seed offset 5000, which keeps their populations
// apart from the paper figures'.
var ablationFigures = []userFigure{
	{
		// The AHP-derived demand weights against equal weights and the
		// three single-factor demands.
		id:     "ablation-weights",
		title:  "Demand weighting ablation: overall completeness",
		notes:  "ahp = the paper's Table I weights; others replace the weight vector only.",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]weightVariant{
			{"ahp", sim.MechanismOnDemand},
			{"equal", sim.MechanismEqualWeights},
			{"deadline-only", sim.MechanismDeadlineOnly},
			{"progress-only", sim.MechanismProgressOnly},
			{"neighbors-only", sim.MechanismNeighborsOnly},
		}, func(cfg *sim.Config, v weightVariant) string {
			cfg.Mechanism = v.mech
			return v.name
		}),
	},
	{
		// The demand-level count N of Table III, rescaling lambda to keep
		// the Eq. 9 budget constraint satisfiable.
		id:     "ablation-levels",
		title:  "Demand-level granularity ablation: overall completeness",
		notes:  "lambda rescaled as 2/N so r0 from Eq. 9 stays positive at B = 1000.",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]int{1, 2, 5, 10, 20}, func(cfg *sim.Config, n int) string {
			cfg.DemandLevels = n
			cfg.RewardLambda = 2.0 / float64(n)
			return fmt.Sprintf("N=%d", n)
		}),
	},
	{
		// The per-round user time budget the paper never states (DESIGN.md
		// assumption 2).
		id:     "ablation-budget",
		title:  "Per-round time budget sensitivity: overall completeness",
		notes:  "600 s is this implementation's default (DESIGN.md section 4).",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]float64{150, 300, 600, 1200}, func(cfg *sim.Config, budget float64) string {
			cfg.UserTimeBudget = budget
			return fmt.Sprintf("%.0fs", budget)
		}),
	},
	{
		// Lifts the paper's negligible-sensing-time assumption: each
		// measurement consumes the given on-site seconds out of the user's
		// round budget.
		id:     "ablation-sensing",
		title:  "Sensing-time sensitivity: overall completeness",
		notes:  "0 s is the paper's assumption (Section III-C: sensing time negligible next to travel).",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]float64{0, 30, 60, 120}, func(cfg *sim.Config, sensing float64) string {
			cfg.SensingTime = sensing
			return fmt.Sprintf("%.0fs/meas", sensing)
		}),
	},
	{
		// The between-round user movement models, an extension beyond the
		// paper's stationary population.
		id:     "ablation-mobility",
		title:  "Mobility model ablation: overall completeness",
		notes:  "Mobile users redistribute between rounds with their idle time, changing each task's neighboring-user counts.",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]sim.MobilityKind{
			sim.MobilityStationary, sim.MobilityRandomWaypoint, sim.MobilityLevyWalk,
		}, func(cfg *sim.Config, mob sim.MobilityKind) string {
			cfg.Mobility = mob
			return mob.String()
		}),
	},
	{
		// Robustness to population churn, an extension beyond the paper's
		// fixed population.
		id:     "ablation-churn",
		title:  "Population churn robustness: overall completeness",
		notes:  "Each round the given fraction of users departs and is replaced by fresh users with no contribution history.",
		yLabel: "overall completeness (%)", seedBase: 5000, pick: overallCompleteness,
		variants: onDemandSweep([]float64{0, 0.1, 0.3, 0.5}, func(cfg *sim.Config, churn float64) string {
			cfg.ChurnRate = churn
			return fmt.Sprintf("churn=%.0f%%", churn*100)
		}),
	},
}
