package main

import (
	"errors"
	"fmt"
	"time"

	"paydemand/internal/agent"
	"paydemand/internal/demand"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// timedMechanism records a span around every pricing call. The engine
// prices through RewardsInto only.
type timedMechanism struct {
	incentive.Mechanism
	sink sink
}

func (m *timedMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	start := clock()
	err := m.Mechanism.RewardsInto(in, out)
	m.sink.record(lRewards, start, clock())
	return err
}

// timedAlgorithm records a span and the problem size around every solve.
type timedAlgorithm struct {
	selection.Algorithm
	sink sink
}

func (a *timedAlgorithm) Select(p selection.Problem) (selection.Plan, error) {
	start := clock()
	plan, err := a.Algorithm.Select(p)
	a.sink.selected(start, clock(), len(p.Candidates), !plan.Empty())
	return plan, err
}

// errUnmirrored rejects configurations whose simulator paths the mirror
// does not reproduce.
var errUnmirrored = errors.New("mirror: only the sequential on-demand/Auto loop with stationary users and no churn, resets, jitter or sensing time is mirrored")

// mirrorTrial runs one trial of sim.New(cfg, trialSeed).Run(nil) through
// the public engine, selection and incentive calls that sim.runRound makes
// on its sequential path — same RNG splits, same users, same call order —
// with a span around each call. Its TrialResult is byte-identical to the
// simulator's; runs check that on every trial. It returns the number of
// rounds that had open tasks.
func mirrorTrial(cfg sim.Config, trialSeed int64, trial int, rec *recorder) (metrics.TrialResult, int, error) {
	if cfg.Mechanism != sim.MechanismOnDemand || cfg.Algorithm != sim.AlgorithmAuto ||
		cfg.Mobility != sim.MobilityStationary || cfg.RoundParallelism > 1 || cfg.Shards > 0 || cfg.ChurnRate > 0 || cfg.ResetLocations ||
		cfg.TimeBudgetJitter > 0 || cfg.SensingTime > 0 {
		return metrics.TrialResult{}, 0, errUnmirrored
	}
	rec.trace = int64(trial) << 16
	rec.begin(lSetup)
	top := stats.NewRNG(trialSeed)
	sc, err := workload.Generate(top.Split(), cfg.Workload)
	if err != nil {
		rec.end()
		return metrics.TrialResult{}, 0, err
	}
	root := stats.NewRNG(top.Int63())
	mechRNG := root.Split()
	orderRNG := root.Split()
	root.Split() // location resets
	root.Split() // churn
	root.Split() // time-budget jitter
	mobRNG := root.Split()

	m, err := mirrorSetup(cfg, sc, mechRNG, rec)
	rec.end()
	if err != nil {
		return metrics.TrialResult{}, 0, err
	}
	eng, users, mob, alg := m.eng, m.users, m.mob, m.alg

	res := metrics.TrialResult{
		Mechanism: m.mechanism,
		Algorithm: alg.Name(),
		Users:     len(users),
		Tasks:     eng.Board().Len(),
	}
	horizon := cfg.Rounds
	if horizon == 0 {
		horizon = eng.Board().MaxDeadline()
	}
	var (
		userLocs []geo.Point
		idle     []float64
		perm     []int
		cand     []selection.Candidate
		rounds   int
	)
	for k := 1; k <= horizon; k++ {
		rec.trace = int64(trial)<<16 | int64(k)
		rs := metrics.RoundStats{Round: k}
		rec.begin(lBeginRound)
		open := eng.BeginRound(k)
		rec.end()
		rs.OpenTasks = len(open)
		if len(open) > 0 {
			rounds++
			rec.begin(lDriver)
			userLocs = agent.LocationsInto(userLocs, users)
			rec.end()
			rec.begin(lNeighborViews)
			views, err := eng.NeighborViews(userLocs)
			rec.end()
			if err != nil {
				return metrics.TrialResult{}, 0, fmt.Errorf("round %d: %w", k, err)
			}
			rec.begin(lRepriceViews)
			err = eng.RepriceViews(views, userLocs)
			rec.end()
			if err != nil {
				return metrics.TrialResult{}, 0, fmt.Errorf("round %d: %w", k, err)
			}
			rs.MeanPublishedReward = eng.MeanPublishedReward()
		}

		rec.begin(lDriver)
		if cap(idle) < len(users) {
			idle = make([]float64, len(users))
		}
		idle = idle[:len(users)]
		for i, u := range users {
			idle[i] = u.TimeBudget
		}
		if len(open) > 0 {
			perm = orderRNG.PermInto(perm, len(users))
		}
		rec.end()
		if len(open) > 0 {
			for _, ui := range perm {
				u := users[ui]
				// The user's turn is a driver span: its self time is the
				// agent bookkeeping around the engine and solver calls.
				rec.begin(lDriver)
				rec.begin(lProblemInto)
				var problem selection.Problem
				problem, cand = eng.ProblemInto(engine.Spec{
					Start:        u.Location,
					MaxDistance:  u.MaxTravelDistance(),
					CostPerMeter: u.CostPerMeter,
				}, u, cand)
				rec.end()
				plan, err := alg.Select(problem)
				if err != nil {
					return metrics.TrialResult{}, 0, fmt.Errorf("round %d user %d: %w", k, u.ID, err)
				}
				if plan.Empty() {
					rec.end()
					continue
				}
				rec.begin(lCommitPlan)
				n, err := eng.CommitPlan(u.ID, plan.Order)
				rec.end()
				for _, id := range plan.Order[:n] {
					u.MarkDone(id)
				}
				if err != nil {
					return metrics.TrialResult{}, 0, fmt.Errorf("round %d user %d task %d: %w", k, u.ID, plan.Order[n], err)
				}
				u.AddProfit(plan.Profit)
				rs.RoundProfit += plan.Profit
				rs.ActiveUsers++
				if end, ok := plan.Path.End(); ok {
					u.MoveTo(end)
				}
				idle[ui] -= u.TravelTime(plan.Distance)
				if idle[ui] < 0 {
					idle[ui] = 0
				}
				rec.end()
			}
		}
		rec.begin(lDriver)
		for i, u := range users {
			u.MoveTo(mob.Step(mobRNG, u.ID, u.Location, idle[i], u.Speed))
		}
		rec.end()
		rec.begin(lFinishRound)
		eng.FinishRoundStats(&rs)
		rec.end()
		res.Rounds = append(res.Rounds, rs)
		res.RoundsRun = k
	}
	rec.begin(lFinishTrial)
	eng.FinishTrial(&res)
	rec.end()
	rec.begin(lDriver)
	for _, u := range users {
		res.UserProfits = append(res.UserProfits, u.Profit())
	}
	res.AvgUserProfit = stats.Mean(res.UserProfits)
	res.ProfitGini = stats.Gini(res.UserProfits)
	rec.end()
	return res, rounds, nil
}

// mirror is what sim.NewFromScenario builds for one trial.
type mirror struct {
	eng       *engine.Engine
	users     []*agent.User
	mob       mobility.Model
	alg       selection.Algorithm
	mechanism string
}

// mirrorSetup builds what sim.NewFromScenario builds, in the same order:
// board, mechanism, solver, mobility model and forecast, engine, users.
// The mechanism and solver are wrapped so their calls are spans.
func mirrorSetup(cfg sim.Config, sc workload.Scenario, mechRNG *stats.RNG, rec *recorder) (mirror, error) {
	board, err := task.NewBoard(sc.Tasks)
	if err != nil {
		return mirror{}, err
	}
	scheme, err := incentive.SchemeFromBudget(cfg.Budget, board.TotalRequired(), cfg.RewardLambda,
		demand.LevelMapper{N: cfg.DemandLevels})
	if err != nil {
		return mirror{}, err
	}
	inner, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		return mirror{}, err
	}
	mech := &timedMechanism{Mechanism: inner, sink: rec}
	alg := &timedAlgorithm{
		Algorithm: &selection.Auto{Threshold: cfg.DPMaxTasks, BeamWidth: cfg.BeamWidth, BeamImprove: cfg.BeamImprove},
		sink:      rec,
	}
	var mob mobility.Model = mobility.Stationary{}
	fc, err := mobility.NewForecast(mob, cfg.MobilityUncertainty, sc.Area, cfg.NeighborRadius, len(sc.UserLocations))
	if err != nil {
		return mirror{}, err
	}
	eng, err := engine.New(engine.Config{
		Board:           board,
		Mechanism:       mech,
		Area:            sc.Area,
		NeighborRadius:  cfg.NeighborRadius,
		RNG:             mechRNG,
		Budget:          cfg.Budget,
		BidCostPerMeter: cfg.CostPerMeter,
		Forecast:        fc,
	})
	if err != nil {
		return mirror{}, err
	}
	users := make([]*agent.User, len(sc.UserLocations))
	for i, loc := range sc.UserLocations {
		u := agent.New(i+1, loc)
		u.Speed = cfg.UserSpeed
		u.TimeBudget = cfg.UserTimeBudget
		u.CostPerMeter = cfg.CostPerMeter
		users[i] = u
	}
	return mirror{eng: eng, users: users, mob: mob, alg: alg, mechanism: inner.Name()}, nil
}

// traceSim runs mirrored trials until d has passed in them and their
// untraced twins: each trial's inputs are also run through sim.Run,
// outside the traced window. The two results must be byte-identical, and
// the ratio of their times is the tracing overhead.
func traceSim(cfg sim.Config, seed int64, d time.Duration) (*result, []span) {
	r := newResult()
	rng := stats.NewRNG(seed)
	rec := newRecorder(lSelect)
	if _, _, err := mirrorTrial(cfg, rng.Int63(), -1, newRecorder()); err != nil {
		r.fail("warm-up: %v", err)
		return r, nil
	}
	var rounds int
	var traced, plain int64
	committed := 0
	// The untraced twins are timed like the untraced run, for the tail
	// latencies and the tracing overhead.
	obs := &roundTimer{}
	var plainRounds, plainPlans []int64
	for trial := 0; traced+plain < int64(d); trial++ {
		trialSeed := rng.Int63()
		r.attempted++
		t0 := clock()
		res, n, err := mirrorTrial(cfg, trialSeed, trial, rec)
		t1 := clock()
		if err != nil {
			r.failed++
			r.fail("trial %d: %v", trial, err)
			break
		}
		traced += t1 - t0
		rec.window += t1 - t0
		rounds += n
		committed += res.TotalMeasurements

		s, err := sim.New(cfg, trialSeed)
		if err != nil {
			r.fail("trial %d: %v", trial, err)
			break
		}
		t2 := clock()
		obs.reset(t2)
		want, err := s.Run(obs)
		plain += clock() - t2
		if err != nil {
			r.fail("trial %d: %v", trial, err)
			break
		}
		plainRounds = append(plainRounds, obs.rounds...)
		plainPlans = append(plainPlans, obs.plans...)
		got, _ := trialDigest(res)
		if dg, _ := trialDigest(want); got != dg {
			r.fail("trial %d: mirror digest %s, sim.Run %s", trial, got, dg)
			break
		}
	}
	if rounds == 0 || len(r.problems) > 0 {
		return r, rec.spans
	}
	// The untraced time excludes sim.New, so compare it with the traced
	// time minus the mirror's set-up spans.
	overhead := float64(traced-rec.agg[lSetup].total) / float64(plain)
	perRound := func(l ...layer) float64 {
		var t int64
		for _, x := range l {
			t += rec.agg[x].self
		}
		return float64(t) / 1e6 / float64(rounds)
	}
	r.set("driver.self.ms_per_round", perRound(lDriver))
	r.set("engine.reprice.ms_per_round", perRound(lBeginRound, lNeighborViews, lRepriceViews))
	r.set("engine.problem.ms_per_round", perRound(lProblemInto))
	r.set("engine.commit.ms_per_round", perRound(lCommitPlan))
	r.set("engine.publish.ms_per_round", perRound(lFinishRound, lFinishTrial))
	r.set("engine.tasks_committed_per_round", float64(committed)/float64(rounds))
	r.set("wire.bytes_per_round", 0)
	r.set("http.new_conns_per_round", 0)
	r.set("trace.unattributed_ratio", 1-float64(rec.top)/float64(rec.window))
	r.set("trace.overhead_ratio", overhead)
	reportTails(r, plainRounds, plainPlans)
	reportCommon(r, rec, rounds)
	r.addExtra("sim.setup.ms_per_trial", float64(rec.agg[lSetup].total)/1e6/float64(r.attempted), "ms", 0)
	for _, l := range []layer{lBeginRound, lNeighborViews, lRepriceViews, lProblemInto, lCommitPlan, lFinishRound, lFinishTrial} {
		r.addExtra(l.String()+".ms_per_round", perRound(l), "ms", 0)
	}
	r.addExtra("rounds", float64(rounds), "count", 0)
	return r, rec.spans
}

// reportTails sets the tail latencies of the untraced twins. They repeat
// too poorly from run to run on a shared host to carry a regression bound,
// so they are reported with the per-layer metrics.
func reportTails(r *result, rounds, plans []int64) {
	r.percentiles(rounds, 1e6, map[string]float64{"round_ms_p90": 0.9})
	r.percentiles(plans, 1e3, map[string]float64{"plan_us_p99": 0.99})
}

// reportCommon sets the per-layer metrics both kinds of workload measure
// the same way: the mechanism and the solver.
func reportCommon(r *result, rec *recorder, rounds int) {
	perRound := func(v int64) float64 { return float64(v) / float64(rounds) }
	r.set("incentive.rewards.ms_per_round", perRound(rec.agg[lRewards].self)/1e6)
	r.set("incentive.rewards.calls_per_round", perRound(rec.agg[lRewards].calls))
	sel := rec.agg[lSelect]
	r.set("selection.select.ms_per_round", perRound(sel.self)/1e6)
	r.set("selection.select.calls_per_round", perRound(sel.calls))
	p50, _ := quantile(sortedCopy(rec.samples[lSelect]), 0.5)
	r.setTiming("selection.select.us_p50", p50/1e3, len(rec.samples[lSelect]))
	if sel.calls > 0 {
		r.set("selection.candidates_per_call", float64(rec.candidates)/float64(sel.calls))
		r.set("selection.nonempty_ratio", float64(rec.nonEmpty)/float64(sel.calls))
	}
}
