package experiments

import (
	"paydemand/internal/metrics"
	"paydemand/internal/sat"
	"paydemand/internal/sim"
)

// satVsWST compares the paper's WST mode under the on-demand incentive
// against a Server-Assigned-Tasks reverse auction (the mode the paper
// argues against in Sections I-II) on overall completeness and platform
// cost per measurement. Seed offset 7000 gives WST trials 7000+ui and
// SAT trials 7100+ui.
var satVsWST = sweep{
	seedBase: 7000,
	variants: func(opts Options) []variant {
		wst := opts.Base
		wst.Mechanism = sim.MechanismOnDemand
		return []variant{
			simVariant("wst-on-demand", wst),
			{"sat-auction", func(users int, seed int64) (metrics.TrialResult, error) {
				cfg := sat.Config{Workload: opts.Base.Workload}
				cfg.Workload.NumUsers = users
				return sat.Run(cfg, seed)
			}},
		}
	},
	views: []view{{
		id:     "ext-sat-vs-wst",
		title:  "WST on-demand vs SAT reverse auction",
		yLabel: "overall completeness (%) / $ per measurement",
		// Completeness of both modes, then their platform cost.
		picks: []pick{
			{"", overallCompleteness},
			{" ($/meas)", rewardPerMeasurement},
		},
		notes: "Extension beyond the paper: the SAT baseline assigns tasks centrally by " +
			"first-price reverse auction with a 20% bidder margin. Central assignment edges " +
			"out WST on completeness because the server exploits global knowledge of every " +
			"user's location; the paper's argument for WST is exactly that this knowledge " +
			"(and the bidding round-trips) should not be required. On-demand WST closes most " +
			"of the gap without it.",
	}},
}
