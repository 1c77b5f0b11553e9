package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// roundTimer is the observer of an untraced trial. It reads the clock once
// per event, so the trial runs the unmodified sim.Run loop. A round spans
// from the previous round's end (or the start of Run) to its own end; a
// plan spans from the round's publication or the previous user's plan to
// this user's, so it covers the previous user's commit, this user's
// problem assembly and the solve.
type roundTimer struct {
	sim.BaseObserver
	roundStart int64
	last       int64
	rounds     []int64
	plans      []int64
}

func (o *roundTimer) reset(start int64) {
	o.roundStart, o.last = start, start
	o.rounds, o.plans = o.rounds[:0], o.plans[:0]
}

func (o *roundTimer) RoundStart(int, map[task.ID]float64) { o.last = clock() }

func (o *roundTimer) UserPlanned(int, int, selection.Problem, selection.Plan) {
	now := clock()
	o.plans = append(o.plans, now-o.last)
	o.last = now
}

func (o *roundTimer) RoundEnd(_ int, rs metrics.RoundStats) {
	now := clock()
	if rs.OpenTasks > 0 {
		o.rounds = append(o.rounds, now-o.roundStart)
	}
	o.roundStart = now
}

// simRun accumulates one run of a simulation workload.
type simRun struct {
	setups []int64
	window int64
	rounds []int64
	plans  []int64
	// rates holds each trial's measurements per second of its Run.
	rates   []float64
	allocs  uint64
	digests []string
}

// trialDigest is the hex SHA-256 of a trial's JSON encoding.
func trialDigest(res metrics.TrialResult) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// checkTrial verifies the invariants every trial must hold.
func checkTrial(cfg sim.Config, res metrics.TrialResult) error {
	if res.TotalMeasurements <= 0 {
		return fmt.Errorf("trial made no measurements")
	}
	if res.TotalRewardPaid > cfg.Budget+1e-6 {
		return fmt.Errorf("trial paid %v over budget %v", res.TotalRewardPaid, cfg.Budget)
	}
	return nil
}

// runSim measures sim.New + Run trials until the measured time reaches d.
// Trial seeds are drawn from seed, so the same seed runs the same trials.
func runSim(cfg sim.Config, seed int64, d time.Duration, golden []string) *result {
	r := newResult()
	rng := stats.NewRNG(seed)
	// One discarded warm-up trial fills caches and grows scratch.
	if _, err := sim.Run(cfg, rng.Int63()); err != nil {
		r.fail("warm-up: %v", err)
		return r
	}
	var run simRun
	var seeds []int64
	obs := &roundTimer{}
	ref, err := newSpeedRef(true)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	defer ref.close()
	runtime.GC()
	for run.window < int64(d) || len(seeds) < len(golden) {
		ref.sample()
		trialSeed := rng.Int63()
		seeds = append(seeds, trialSeed)
		r.attempted++
		t0 := clock()
		s, err := sim.New(cfg, trialSeed)
		run.setups = append(run.setups, clock()-t0)
		if err != nil {
			r.failed++
			r.fail("trial %d: %v", len(seeds)-1, err)
			break
		}
		a0 := allocBytes()
		start := clock()
		obs.reset(start)
		res, err := s.Run(obs)
		end := clock()
		run.allocs += allocBytes() - a0
		run.window += end - start
		if err != nil {
			r.failed++
			r.fail("trial %d: %v", len(seeds)-1, err)
			break
		}
		run.rounds = append(run.rounds, obs.rounds...)
		run.plans = append(run.plans, obs.plans...)
		run.rates = append(run.rates, float64(res.TotalMeasurements)/(float64(end-start)/1e9))
		if err := checkTrial(cfg, res); err != nil {
			r.fail("trial %d: %v", len(seeds)-1, err)
		}
		if len(run.digests) < len(golden) || len(run.digests) == 0 {
			dg, err := trialDigest(res)
			if err != nil {
				r.fail("trial %d: %v", len(seeds)-1, err)
			}
			run.digests = append(run.digests, dg)
		}
	}
	if len(seeds) == 0 || len(r.problems) > 0 {
		return r
	}
	// Outside the measured window: the first trial must repeat exactly
	// through sim.Run, and seed 1 must reproduce the committed goldens.
	if res, err := sim.Run(cfg, seeds[0]); err != nil {
		r.fail("re-run: %v", err)
	} else if dg, _ := trialDigest(res); dg != run.digests[0] {
		r.fail("trial 0 did not repeat: digest %s, re-run %s", run.digests[0], dg)
	}
	if golden != nil {
		for i, want := range golden {
			if i < len(run.digests) && run.digests[i] != want {
				r.fail("trial %d digest %s, golden %s", i, run.digests[i], want)
			}
		}
	}
	run.report(r)
	ref.normalize(r)
	return r
}

func (run *simRun) report(r *result) {
	nRounds := len(run.rounds)
	r.set("setup_s", median(run.setups)/1e9)
	r.set("measurements_per_s", median(run.rates))
	r.percentiles(run.rounds, 1e6, map[string]float64{"round_ms_p50": 0.5})
	r.percentiles(run.plans, 1e3, map[string]float64{"plan_us_p50": 0.5})
	if nRounds > 0 {
		r.set("alloc_kb_per_round", float64(run.allocs)/1024/float64(nRounds))
	}
	r.addExtra("trials", float64(r.attempted), "count", 0)
	r.addExtra("rounds", float64(nRounds), "count", 0)
	r.addExtra("measured_s", float64(run.window)/1e9, "s", 0)
}
