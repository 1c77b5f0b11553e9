package experiments

import (
	"fmt"

	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
)

// comparedMechanisms are the three mechanisms of the paper's comparison
// figures, in plotting order.
var comparedMechanisms = []sim.MechanismKind{
	sim.MechanismOnDemand,
	sim.MechanismFixed,
	sim.MechanismSteered,
}

// baseConfig prepares the simulation config for one sweep point.
func baseConfig(opts Options, mech sim.MechanismKind, users, rounds int) sim.Config {
	cfg := opts.Base
	cfg.Mechanism = mech
	cfg.Workload.NumUsers = users
	cfg.Rounds = rounds
	return cfg
}

// namedConfig is one plotted variant of a population sweep.
type namedConfig struct {
	name string
	cfg  sim.Config
}

// comparedVariants are the three compared mechanisms over opts.Base, each
// run until its largest task deadline (Rounds forced to 0).
func comparedVariants(opts Options) []namedConfig {
	out := make([]namedConfig, len(comparedMechanisms))
	for i, mech := range comparedMechanisms {
		out[i] = namedConfig{mech.String(), baseConfig(opts, mech, 0, 0)}
	}
	return out
}

// userFigure is a figure that plots one final metric against the number
// of users, one series per configuration variant.
type userFigure struct {
	id, title, yLabel, notes string
	// seedBase offsets the configuration index of every trial seed, so
	// figure families that share a sweep draw distinct populations.
	seedBase int
	variants func(Options) []namedConfig
	pick     func(metrics.Summary) float64
}

// run sweeps the (variant, user-count) grid. Trials fan out across the
// worker pool and are aggregated back in trial order, so the output
// matches a sequential run exactly.
func (f userFigure) run(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	variants := f.variants(opts)
	nu := len(opts.UserSweep)
	results, err := runTrials(opts, len(variants)*nu, func(c, trial int) (metrics.TrialResult, error) {
		vi, ui := c/nu, c%nu
		v, users := variants[vi], opts.UserSweep[ui]
		cfg := v.cfg
		cfg.Workload.NumUsers = users
		res, err := sim.Run(cfg, trialSeed(opts.Seed, f.seedBase+vi*100+ui, trial))
		if err != nil {
			return metrics.TrialResult{}, fmt.Errorf("%s users=%d trial=%d: %w", v.name, users, trial, err)
		}
		return res, nil
	})
	if err != nil {
		return Figure{}, err
	}
	series := make([]Series, len(variants))
	for vi, v := range variants {
		s := Series{Name: v.name}
		for ui, users := range opts.UserSweep {
			var agg metrics.Aggregator
			for _, res := range results[vi*nu+ui] {
				agg.Add(res)
			}
			s.X = append(s.X, float64(users))
			s.Y = append(s.Y, f.pick(agg.Summary()))
		}
		series[vi] = s
	}
	return Figure{
		ID:     f.id,
		Title:  f.title,
		XLabel: "number of users",
		YLabel: f.yLabel,
		Series: series,
		Notes:  f.notes,
	}, nil
}

// roundFigure is a figure that plots one per-round metric of the three
// compared mechanisms at the series population, scaled by scale. Its
// title gets the population appended.
type roundFigure struct {
	id, title, yLabel, notes string
	metric                   metrics.RoundMetric
	scale                    float64
}

// run averages the per-round series of every compared mechanism over
// the trials.
func (f roundFigure) run(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	results, err := runTrials(opts, len(comparedMechanisms), func(mi, trial int) (metrics.TrialResult, error) {
		mech := comparedMechanisms[mi]
		cfg := baseConfig(opts, mech, opts.SeriesUsers, opts.Rounds)
		res, err := sim.Run(cfg, trialSeed(opts.Seed, 1000+mi, trial))
		if err != nil {
			return metrics.TrialResult{}, fmt.Errorf("%s trial=%d: %w", mech, trial, err)
		}
		return res, nil
	})
	if err != nil {
		return Figure{}, err
	}
	series := make([]Series, len(comparedMechanisms))
	for mi, mech := range comparedMechanisms {
		var agg metrics.Aggregator
		for _, res := range results[mi] {
			agg.Add(res)
		}
		rs := agg.Series(f.metric, opts.Rounds)
		s := Series{Name: mech.String()}
		for i, k := range rs.Rounds {
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, rs.Values[i]*f.scale)
		}
		series[mi] = s
	}
	return Figure{
		ID:     f.id,
		Title:  fmt.Sprintf("%s (%d users)", f.title, opts.SeriesUsers),
		XLabel: "round",
		YLabel: f.yLabel,
		Series: series,
		Notes:  f.notes,
	}, nil
}

// paperUserFigures are Figs. 6(a)-9(b)'s population sweeps of the three
// compared mechanisms; the ablations of DESIGN.md section 7 follow in
// ablationFigures.
var paperUserFigures = []userFigure{
	{id: "fig6a", title: "Coverage vs number of users", yLabel: "coverage (%)",
		variants: comparedVariants,
		pick:     func(s metrics.Summary) float64 { return s.Coverage * 100 }},
	{id: "fig7a", title: "Overall completeness vs number of users", yLabel: "overall completeness (%)",
		variants: comparedVariants,
		pick:     overallCompleteness},
	{id: "fig8a", title: "Average measurements per task vs number of users", yLabel: "average # of measurements",
		variants: comparedVariants,
		pick:     func(s metrics.Summary) float64 { return s.AvgMeasurements }},
	{id: "fig9a", title: "Variance of measurements vs number of users", yLabel: "variance of measurements",
		variants: comparedVariants,
		pick:     func(s metrics.Summary) float64 { return s.VarianceMeasurements }},
	{id: "fig9b", title: "Average reward per measurement vs number of users", yLabel: "average reward per measurement ($)",
		variants: comparedVariants,
		pick:     func(s metrics.Summary) float64 { return s.AvgRewardPerMeasurement }},
}

// roundFigures are Figs. 6(b)-8(b) and the reward trajectory: the same
// runs of the three compared mechanisms, read through different round
// metrics.
var roundFigures = []roundFigure{
	{id: "fig6b", title: "Coverage vs sensing round", yLabel: "coverage (%)",
		metric: metrics.MetricCoverage, scale: 100},
	{id: "fig7b", title: "Overall completeness vs sensing round", yLabel: "overall completeness (%)",
		metric: metrics.MetricCompleteness, scale: 100},
	{id: "fig8b", title: "New measurements per round", yLabel: "# of measurements",
		metric: metrics.MetricNewMeasurements, scale: 1},
	// The mechanism-design story behind all the comparison figures made
	// directly visible: fixed prices stay flat, steered prices only decay,
	// and on-demand prices climb as the remaining (hard, remote) tasks
	// approach their deadlines.
	{id: "ext-reward-trajectory", title: "Mean published reward per round",
		yLabel: "mean reward per measurement ($)",
		metric: metrics.MetricMeanReward, scale: 1,
		notes: "Extension view: the same runs as Fig. 6(b)-8(b), showing the price signal " +
			"itself. Rounds after a mechanism's task set empties publish no rewards and " +
			"report zero."},
}

// profitAtRound2 is the observer for Fig. 5: it records, at sensing round
// 2, each user's optimal (DP) plan profit and the greedy profit on the
// identical problem instance.
type profitAtRound2 struct {
	sim.BaseObserver
	greedy        selection.Greedy // persistent so its scratch is reused per user
	dpProfits     []float64
	greedyProfits []float64
	err           error
}

func (o *profitAtRound2) UserPlanned(round, _ int, p selection.Problem, plan selection.Plan) {
	if round != 2 || o.err != nil {
		return
	}
	gr, err := o.greedy.Select(p)
	if err != nil {
		o.err = err
		return
	}
	o.dpProfits = append(o.dpProfits, plan.Profit)
	o.greedyProfits = append(o.greedyProfits, gr.Profit)
}

// runFig5 runs the DP-driven simulation and collects paired per-user
// profits at round 2 for every sweep point. Each trial returns its
// observer so the per-user profit streams can be merged in trial order
// after the parallel fan-out.
func runFig5(opts Options) (dpMean, grMean []float64, diffs []float64, err error) {
	opts = opts.withDefaults()
	results, err := runTrials(opts, len(opts.UserSweep), func(ui, trial int) (*profitAtRound2, error) {
		cfg := baseConfig(opts, sim.MechanismOnDemand, opts.UserSweep[ui], 2)
		cfg.Algorithm = sim.AlgorithmDP
		s, err := sim.New(cfg, trialSeed(opts.Seed, 2000+ui, trial))
		if err != nil {
			return nil, err
		}
		obs := &profitAtRound2{}
		if _, err := s.Run(obs); err != nil {
			return nil, err
		}
		if obs.err != nil {
			return nil, obs.err
		}
		return obs, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dpMean = make([]float64, len(opts.UserSweep))
	grMean = make([]float64, len(opts.UserSweep))
	for ui := range opts.UserSweep {
		var dpAgg, grAgg stats.Running
		for _, obs := range results[ui] {
			for i := range obs.dpProfits {
				dpAgg.Add(obs.dpProfits[i])
				grAgg.Add(obs.greedyProfits[i])
				if d := obs.dpProfits[i] - obs.greedyProfits[i]; d > 0 {
					diffs = append(diffs, d)
				}
			}
		}
		dpMean[ui] = dpAgg.Mean()
		grMean[ui] = grAgg.Mean()
	}
	return dpMean, grMean, diffs, nil
}

// Fig5a reproduces Fig. 5(a): average profit per user at sensing round 2,
// optimal DP vs greedy, against the number of users.
func Fig5a(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	dpMean, grMean, _, err := runFig5(opts)
	if err != nil {
		return Figure{}, err
	}
	xs := make([]float64, len(opts.UserSweep))
	for i, u := range opts.UserSweep {
		xs[i] = float64(u)
	}
	return Figure{
		ID:     "fig5a",
		Title:  "Average profit per user at round 2: DP vs greedy",
		XLabel: "number of users",
		YLabel: "average profit per user ($)",
		Series: []Series{
			{Name: "dp", X: xs, Y: dpMean},
			{Name: "greedy", X: xs, Y: grMean},
		},
		Notes: "Profits are on this implementation's budget-derived reward scale; the paper's absolute values differ but dp >= greedy must hold pointwise.",
	}, nil
}

// Fig5b reproduces Fig. 5(b): the distribution (boxplot) of the per-user
// profit difference between the DP and greedy selections on identical
// problem instances at round 2.
func Fig5b(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	_, _, diffs, err := runFig5(opts)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:        "fig5b",
		Title:     "Per-user profit difference (dp - greedy) at round 2",
		XLabel:    "all users, all trials",
		YLabel:    "profit difference ($)",
		Boxplots:  []stats.Boxplot{stats.NewBoxplot(diffs)},
		BoxLabels: []string{"dp - greedy"},
		Notes:     "Differences are collected on identical per-user problem instances; zero differences (both algorithms equal) are omitted as in the paper's positive-difference boxplot.",
	}, nil
}
