package experiments

import (
	"fmt"

	"paydemand/internal/sim"
)

// Ablation experiments beyond the paper's figures: they probe the design
// choices DESIGN.md section 7 calls out. Each is a population sweep of
// on-demand variants of Options.Base, plotted as overall completeness.

// onDemandSweep returns a variants function with one on-demand copy of
// opts.Base per value; set adjusts the copy to its value and names it.
func onDemandSweep[T any](values []T, set func(*sim.Config, T) string) func(Options) []variant {
	return func(opts Options) []variant {
		out := make([]variant, len(values))
		for i, v := range values {
			cfg := opts.Base
			cfg.Mechanism = sim.MechanismOnDemand
			out[i] = simVariant(set(&cfg, v), cfg)
		}
		return out
	}
}

// ablation is a one-view sweep of overall completeness. Every ablation
// shares seed offset 5000, which keeps its populations apart from the
// paper figures'.
func ablation(id, title, notes string, variants func(Options) []variant) sweep {
	return sweep{seedBase: 5000, variants: variants, views: []view{{
		id: id, title: title, notes: notes,
		yLabel: "overall completeness (%)", picks: []pick{{"", overallCompleteness}},
	}}}
}

// weightVariant names one demand-weighting mechanism of ablation-weights.
type weightVariant struct {
	name string
	mech sim.MechanismKind
}

var ablationSweeps = []sweep{
	// The AHP-derived demand weights against equal weights and the three
	// single-factor demands.
	ablation("ablation-weights", "Demand weighting ablation: overall completeness",
		"ahp = the paper's Table I weights; others replace the weight vector only.",
		onDemandSweep([]weightVariant{
			{"ahp", sim.MechanismOnDemand},
			{"equal", sim.MechanismEqualWeights},
			{"deadline-only", sim.MechanismDeadlineOnly},
			{"progress-only", sim.MechanismProgressOnly},
			{"neighbors-only", sim.MechanismNeighborsOnly},
		}, func(cfg *sim.Config, v weightVariant) string {
			cfg.Mechanism = v.mech
			return v.name
		})),
	// The demand-level count N of Table III, rescaling lambda to keep the
	// Eq. 9 budget constraint satisfiable.
	ablation("ablation-levels", "Demand-level granularity ablation: overall completeness",
		"lambda rescaled as 2/N so r0 from Eq. 9 stays positive at B = 1000.",
		onDemandSweep([]int{1, 2, 5, 10, 20}, func(cfg *sim.Config, n int) string {
			cfg.DemandLevels = n
			cfg.RewardLambda = 2.0 / float64(n)
			return fmt.Sprintf("N=%d", n)
		})),
	// The per-round user time budget the paper never states (DESIGN.md
	// assumption 2).
	ablation("ablation-budget", "Per-round time budget sensitivity: overall completeness",
		"600 s is this implementation's default (DESIGN.md section 4).",
		onDemandSweep([]float64{150, 300, 600, 1200}, func(cfg *sim.Config, budget float64) string {
			cfg.UserTimeBudget = budget
			return fmt.Sprintf("%.0fs", budget)
		})),
	// Lifts the paper's negligible-sensing-time assumption: each
	// measurement consumes the given on-site seconds out of the user's
	// round budget.
	ablation("ablation-sensing", "Sensing-time sensitivity: overall completeness",
		"0 s is the paper's assumption (Section III-C: sensing time negligible next to travel).",
		onDemandSweep([]float64{0, 30, 60, 120}, func(cfg *sim.Config, sensing float64) string {
			cfg.SensingTime = sensing
			return fmt.Sprintf("%.0fs/meas", sensing)
		})),
	// The between-round user movement models, an extension beyond the
	// paper's stationary population.
	ablation("ablation-mobility", "Mobility model ablation: overall completeness",
		"Mobile users redistribute between rounds with their idle time, changing each task's neighboring-user counts.",
		onDemandSweep([]sim.MobilityKind{
			sim.MobilityStationary, sim.MobilityRandomWaypoint, sim.MobilityLevyWalk,
		}, func(cfg *sim.Config, mob sim.MobilityKind) string {
			cfg.Mobility = mob
			return mob.String()
		})),
	// Robustness to population churn, an extension beyond the paper's
	// fixed population.
	ablation("ablation-churn", "Population churn robustness: overall completeness",
		"Each round the given fraction of users departs and is replaced by fresh users with no contribution history.",
		onDemandSweep([]float64{0, 0.1, 0.3, 0.5}, func(cfg *sim.Config, churn float64) string {
			cfg.ChurnRate = churn
			return fmt.Sprintf("churn=%.0f%%", churn*100)
		})),
}
