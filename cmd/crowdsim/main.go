// Command crowdsim runs the location-dependent crowdsensing simulation with
// a configurable incentive mechanism and task selection algorithm, and
// prints the campaign metrics the paper reports (coverage, overall
// completeness, measurements, variance, reward per measurement).
//
// Example:
//
//	crowdsim -mechanism on-demand -algorithm auto -users 100 -trials 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"paydemand/internal/experiments"
	"paydemand/internal/metrics"
	"paydemand/internal/sat"
	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("crowdsim", flag.ContinueOnError)
	var (
		mechanism = fs.String("mechanism", "on-demand", "incentive mechanism: on-demand | fixed | steered | steered-raw | equal-weights | deadline-only | progress-only | neighbors-only | auction | incentme")
		algorithm = fs.String("algorithm", "auto", "task selection: dp | greedy | auto | greedy+2opt | beam")
		users     = fs.Int("users", workload.DefaultNumUsers, "number of mobile users")
		tasks     = fs.Int("tasks", workload.DefaultNumTasks, "number of sensing tasks")
		required  = fs.Int("required", workload.DefaultRequired, "measurements required per task (phi)")
		trials    = fs.Int("trials", 10, "independent trials to average")
		seed      = fs.Int64("seed", 1, "base random seed")
		rounds    = fs.Int("rounds", 0, "round horizon (0 = largest deadline)")
		budget    = fs.Float64("budget", sim.DefaultBudget, "platform reward budget B")
		timeBudg  = fs.Float64("time-budget", sim.DefaultUserTimeBudget, "per-round user time budget in seconds")
		jsonOut   = fs.Bool("json", false, "emit JSON instead of a table")
		perRound  = fs.Bool("per-round", false, "also print the per-round series")
		tracePath = fs.String("trace", "", "write a JSONL event trace of the first trial to this file")
		sensing   = fs.Float64("sensing-time", 0, "seconds per measurement on site (0 = paper's negligible-sensing assumption)")
		churn     = fs.Float64("churn", 0, "per-round user replacement probability")
		jitter    = fs.Float64("budget-jitter", 0, "per-user time budget jitter fraction in [0, 1]")
		mobility  = fs.String("mobility", "stationary", "between-round movement: stationary | random-waypoint | levy-walk")
		compare   = fs.Bool("compare", false, "run on-demand, fixed, steered and the SAT auction side by side")
		parallel  = fs.Int("parallel", 0, "trial worker goroutines (0 = one per CPU, 1 = sequential); results are identical at any setting")
		beamWidth = fs.Int("beam-width", 0, "beam search width for beam and auto (0 = solver default)")
		beamImpr  = fs.Int("beam-improve", 0, "beam 2-opt/or-opt polish rounds (0 = solver default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		// Zero trials would print a table of zeros that reads like a
		// measured campaign.
		return fmt.Errorf("-trials %d, want >= 1", *trials)
	}
	if *compare {
		// The comparison prints its own table over its own mechanisms.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "json", "per-round", "trace", "mechanism":
				if conflict == "" {
					conflict = f.Name
				}
			}
		})
		if conflict != "" {
			return fmt.Errorf("-%s cannot be combined with -compare", conflict)
		}
	}

	mech, err := sim.ParseMechanism(*mechanism)
	if err != nil {
		return err
	}
	alg, err := sim.ParseAlgorithm(*algorithm)
	if err != nil {
		return err
	}
	mob, err := sim.ParseMobility(*mobility)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Workload: workload.Config{
			NumTasks: *tasks,
			NumUsers: *users,
			Required: *required,
		},
		Mechanism:        mech,
		Algorithm:        alg,
		Rounds:           *rounds,
		Budget:           *budget,
		UserTimeBudget:   *timeBudg,
		SensingTime:      *sensing,
		ChurnRate:        *churn,
		TimeBudgetJitter: *jitter,
		Mobility:         mob,
		BeamWidth:        *beamWidth,
		BeamImprove:      *beamImpr,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *compare {
		return runComparison(out, cfg, *trials, *seed, *parallel)
	}

	results, err := experiments.RunTrials(*trials, *parallel, func(i int) (metrics.TrialResult, error) {
		s, err := sim.New(cfg, *seed+int64(i))
		if err != nil {
			return metrics.TrialResult{}, err
		}
		if *tracePath != "" && i == 0 {
			return runTraced(s, *tracePath)
		}
		return s.Run(nil)
	})
	if err != nil {
		return err
	}
	var agg metrics.Aggregator
	for _, res := range results {
		agg.Add(res)
	}
	summary := agg.Summary()

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	}

	fmt.Fprintf(out, "mechanism=%s algorithm=%s users=%d tasks=%d phi=%d trials=%d\n\n",
		mech, alg, *users, *tasks, *required, *trials)
	fmt.Fprintf(out, "%-28s %12s\n", "metric", "mean")
	fmt.Fprintf(out, "%-28s %12.4f\n", "coverage", summary.Coverage)
	fmt.Fprintf(out, "%-28s %12.4f\n", "overall completeness", summary.OverallCompleteness)
	fmt.Fprintf(out, "%-28s %12.4f\n", "strict completeness", summary.StrictCompleteness)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg measurements / task", summary.AvgMeasurements)
	fmt.Fprintf(out, "%-28s %12.4f\n", "variance of measurements", summary.VarianceMeasurements)
	fmt.Fprintf(out, "%-28s %12.4f\n", "total reward paid ($)", summary.TotalRewardPaid)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg reward / measurement", summary.AvgRewardPerMeasurement)
	fmt.Fprintf(out, "%-28s %12.4f\n", "avg user profit ($)", summary.AvgUserProfit)
	fmt.Fprintf(out, "%-28s %12.4f\n", "task gini (balance)", summary.TaskGini)
	fmt.Fprintf(out, "%-28s %12.4f\n", "profit gini (fairness)", summary.ProfitGini)

	if *perRound {
		fmt.Fprintf(out, "\n%-6s %10s %12s %14s\n", "round", "coverage", "complete", "new-measure")
		cov := agg.Series(metrics.MetricCoverage, agg.MaxRound())
		comp := agg.Series(metrics.MetricCompleteness, agg.MaxRound())
		nm := agg.Series(metrics.MetricNewMeasurements, agg.MaxRound())
		for i := range cov.Rounds {
			fmt.Fprintf(out, "%-6d %10.4f %12.4f %14.2f\n",
				cov.Rounds[i], cov.Values[i], comp.Values[i], nm.Values[i])
		}
	}
	return nil
}

// runTraced runs s with its JSONL event trace written to path. The
// simulation carries on past a failing trace sink, so the trace's write
// error, and then the file's close error, fail the trial here.
func runTraced(s *sim.Simulation, path string) (metrics.TrialResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	obs := sim.NewTraceObserver(f)
	res, err := s.Run(obs)
	if err == nil {
		err = obs.Err()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return metrics.TrialResult{}, err
	}
	return res, nil
}

// runComparison averages the three incentive mechanisms plus the SAT
// auction over the same trial seeds and prints them side by side.
func runComparison(out io.Writer, cfg sim.Config, trials int, seed int64, parallel int) error {
	mechs := []sim.MechanismKind{sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered}
	summaries := make([]metrics.Summary, 0, len(mechs)+1)
	names := make([]string, 0, len(mechs)+1)
	for _, mech := range mechs {
		mcfg := cfg
		mcfg.Mechanism = mech
		results, err := experiments.RunTrials(trials, parallel, func(i int) (metrics.TrialResult, error) {
			return sim.Run(mcfg, seed+int64(i))
		})
		if err != nil {
			return err
		}
		var agg metrics.Aggregator
		for _, res := range results {
			agg.Add(res)
		}
		summaries = append(summaries, agg.Summary())
		names = append(names, mech.String())
	}
	satCfg := sat.Config{
		Workload:       cfg.Workload,
		Rounds:         cfg.Rounds,
		UserSpeed:      cfg.UserSpeed,
		UserTimeBudget: cfg.UserTimeBudget,
		CostPerMeter:   cfg.CostPerMeter,
		Budget:         cfg.Budget,
	}
	satResults, err := experiments.RunTrials(trials, parallel, func(i int) (metrics.TrialResult, error) {
		return sat.Run(satCfg, seed+int64(i))
	})
	if err != nil {
		return err
	}
	var satAgg metrics.Aggregator
	for _, res := range satResults {
		satAgg.Add(res)
	}
	summaries = append(summaries, satAgg.Summary())
	names = append(names, "sat-auction")

	fmt.Fprintf(out, "%-28s", "metric")
	for _, n := range names {
		fmt.Fprintf(out, " %12s", n)
	}
	fmt.Fprintln(out)
	row := func(label string, pick func(metrics.Summary) float64) {
		fmt.Fprintf(out, "%-28s", label)
		for _, s := range summaries {
			fmt.Fprintf(out, " %12.4f", pick(s))
		}
		fmt.Fprintln(out)
	}
	row("coverage", func(s metrics.Summary) float64 { return s.Coverage })
	row("overall completeness", func(s metrics.Summary) float64 { return s.OverallCompleteness })
	row("strict completeness", func(s metrics.Summary) float64 { return s.StrictCompleteness })
	row("avg measurements / task", func(s metrics.Summary) float64 { return s.AvgMeasurements })
	row("variance of measurements", func(s metrics.Summary) float64 { return s.VarianceMeasurements })
	row("total reward paid ($)", func(s metrics.Summary) float64 { return s.TotalRewardPaid })
	row("avg reward / measurement", func(s metrics.Summary) float64 { return s.AvgRewardPerMeasurement })
	row("avg user profit ($)", func(s metrics.Summary) float64 { return s.AvgUserProfit })
	row("task gini (balance)", func(s metrics.Summary) float64 { return s.TaskGini })
	row("profit gini (fairness)", func(s metrics.Summary) float64 { return s.ProfitGini })
	return nil
}
