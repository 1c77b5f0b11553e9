package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"paydemand/internal/workload"
)

// recycleMechanisms and recycleAlgorithms are the mechanisms and solvers
// whose recycled scratch the oracle below covers.
var (
	recycleMechanisms = []MechanismKind{MechanismOnDemand, MechanismFixed, MechanismSteered, MechanismAuction, MechanismIncentMe}
	recycleAlgorithms = []AlgorithmKind{AlgorithmAuto, AlgorithmDP, AlgorithmGreedy, AlgorithmTwoOpt, AlgorithmBeam}
)

// recycleCase is a small trial of one mechanism and solver. The doubled
// time budget lets some users reach all 12 tasks, past the beam's exact
// band, so every solver knob changes some plan.
func recycleCase(mech MechanismKind, alg AlgorithmKind) Config {
	return Config{
		Workload:       workload.Config{NumUsers: 40, NumTasks: 12, Required: 5},
		Rounds:         6,
		UserTimeBudget: 2 * DefaultUserTimeBudget,
		Mechanism:      mech,
		Algorithm:      alg,
	}
}

// emptyPool drops every bundle in scratchPool: the first collection
// moves the pool's contents to its victim cache, the second drops them.
func emptyPool() {
	runtime.GC()
	runtime.GC()
}

// coldJSON runs cfg on a fresh bundle.
func coldJSON(t *testing.T, cfg Config, seed int64) []byte {
	t.Helper()
	emptyPool()
	return trialJSON(t, cfg, seed)
}

// recycledCase is a named trial configuration of the recycling oracle.
type recycledCase struct {
	name string
	cfg  Config
	// without, when set, is cfg with its stream's feature switched off:
	// the two must differ, or a stale stream could not show.
	without *Config
}

// streamCases are trials that draw from the recycled RNG streams the
// mechanism and solver cases leave alone: mobility, churn and location
// resets. Every case draws user order, and the fixed mechanism's cases
// draw its level stream. Their users, at the default time budget, leave
// tasks open past the first round, so the streams drawn between rounds
// shape the result.
func streamCases() []recycledCase {
	var cases []recycledCase
	for _, c := range []struct {
		name string
		mech MechanismKind
		alg  AlgorithmKind
		on   func(*Config)
	}{
		{"random-waypoint", MechanismOnDemand, AlgorithmAuto, func(c *Config) { c.Mobility = MobilityRandomWaypoint }},
		{"churn", MechanismFixed, AlgorithmAuto, func(c *Config) { c.ChurnRate = 0.2 }},
		{"location-resets", MechanismSteered, AlgorithmGreedy, func(c *Config) { c.ResetLocations = true }},
	} {
		without := Config{
			Workload:  workload.Config{NumUsers: 40, NumTasks: 30, Required: 8},
			Rounds:    6,
			Mechanism: c.mech,
			Algorithm: c.alg,
		}
		cfg := without
		c.on(&cfg)
		cases = append(cases, recycledCase{name: c.name, cfg: cfg, without: &without})
	}
	return cases
}

// TestRecycledScratchIsInvisible is the oracle for trial scratch
// recycling: a trial run on a bundle that a city-size trial with churn,
// random-waypoint mobility and location resets has just used must
// encode byte for byte as the same trial run on a fresh bundle, for
// every mechanism and solver and for trials that draw from every
// recycled RNG stream. The city trial uses the case's mechanism and
// solver kind, so the recycled solver is the one the case solves with,
// and it draws from every stream the case draws from, so a stream that
// kept its state across the Reset would draw differently.
func TestRecycledScratchIsInvisible(t *testing.T) {
	const seed = 11
	var cases []recycledCase
	for _, mech := range recycleMechanisms {
		for _, alg := range recycleAlgorithms {
			cases = append(cases, recycledCase{name: fmt.Sprintf("%v/%v", mech, alg), cfg: recycleCase(mech, alg)})
		}
	}
	cases = append(cases, streamCases()...)
	reused := 0
	for _, tc := range cases {
		cold := coldJSON(t, tc.cfg, seed)
		if tc.without != nil && bytes.Equal(cold, coldJSON(t, *tc.without, seed)) {
			t.Errorf("%s: the trial does not depend on its stream", tc.name)
		}

		city := tc.cfg
		city.Workload = workload.Config{NumUsers: 2000, NumTasks: 1000, Required: 10}
		city.Budget = 25000
		city.UserTimeBudget = 25
		city.Rounds = 5
		city.ChurnRate = 0.1
		city.Mobility = MobilityRandomWaypoint
		city.ResetLocations = true
		// Other solver knobs, so a recycled solver that kept the city
		// trial's settings would solve the case differently.
		city.DPMaxTasks, city.BeamWidth, city.BeamImprove = 8, 1, 1
		// The city trial starts on a fresh bundle too, so the solver
		// it hands on was built with the city's knobs.
		emptyPool()
		d, err := New(city, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		dirty := d.trialScratch
		if _, err := d.Run(nil); err != nil {
			t.Fatalf("%s city trial: %v", tc.name, err)
		}

		w, err := New(tc.cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		if w.trialScratch == dirty {
			reused++
		}
		res, err := w.Run(nil)
		if err != nil {
			t.Errorf("%s: recycled trial: %v", tc.name, err)
			continue
		}
		warm, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("%s: recycled trial differs from the cold run\ncold: %s\nwarm: %s", tc.name, cold, warm)
		}
	}
	// The pool is per-P, and under the race detector Put drops a quarter
	// of its values on purpose, so a single case may miss the city
	// trial's bundle; every case missing it means Run hands nothing back.
	if reused == 0 {
		t.Error("no case ran on the city trial's recycled scratch")
	}
}

// TestRecycledScratchConcurrent runs a mix of trials on several
// goroutines at once, so bundles pass between goroutines and between
// mechanisms, solvers and sizes; every trial must encode as its cold run
// does.
func TestRecycledScratchConcurrent(t *testing.T) {
	type trial struct {
		name string
		cfg  Config
		seed int64
		want []byte
	}
	var trials []trial
	for i, mech := range recycleMechanisms {
		alg := recycleAlgorithms[i]
		cfg := recycleCase(mech, alg)
		trials = append(trials, trial{name: fmt.Sprintf("%v/%v", mech, alg), cfg: cfg, seed: int64(20 + i)})
		big := cfg
		big.Workload = workload.Config{NumUsers: 150, NumTasks: 20, Required: 8}
		big.ChurnRate = 0.05
		big.Mobility = MobilityRandomWaypoint
		trials = append(trials, trial{name: fmt.Sprintf("%v/%v/big", mech, alg), cfg: big, seed: int64(30 + i)})
	}
	for i := range trials {
		trials[i].want = coldJSON(t, trials[i].cfg, trials[i].seed)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(trials) {
				tr := trials[(g*3+k)%len(trials)]
				res, err := Run(tr.cfg, tr.seed)
				if err != nil {
					errs[g] = append(errs[g], fmt.Sprintf("%s: %v", tr.name, err))
					continue
				}
				got, err := json.Marshal(res)
				if err != nil || !bytes.Equal(got, tr.want) {
					errs[g] = append(errs[g], fmt.Sprintf("%s: differs from the cold run (%v)", tr.name, err))
				}
			}
		}()
	}
	wg.Wait()
	for g, list := range errs {
		for _, e := range list {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// TestRunReleasesScratch checks that a finished Simulation holds no
// recycled scratch: the bundle is back in the pool, and a stale use of
// the engine through the Simulation fails instead of touching a bundle
// another trial may own.
func TestRunReleasesScratch(t *testing.T) {
	s, err := New(recycleCase(MechanismOnDemand, AlgorithmAuto), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if s.trialScratch != nil {
		t.Fatal("Run kept its scratch")
	}
	if s.Board() == nil || len(s.Users()) != 40 {
		t.Error("Board and Users must stay readable after Run")
	}
	if _, err := s.Run(nil); err == nil {
		t.Error("second Run succeeded")
	}
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Run did not fail", what)
			}
		}()
		f()
	}
	panics("a round", func() { _, _ = s.runRound(1, BaseObserver{}) })
	panics("a draw from the order stream", func() { s.orderRNG.Float64() })
}
