package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

// tinyOpts is the smallest meaningful sweep: it keeps the determinism
// and stress tests fast while still exercising multi-config fan-out.
func tinyOpts() Options {
	return Options{
		Trials:      3,
		Seed:        1,
		UserSweep:   []int{20, 40},
		SeriesUsers: 20,
		Rounds:      5,
		Base: sim.Config{
			Workload: workload.Config{NumTasks: 6, Required: 3},
		},
	}
}

// figureJSON runs a figure and marshals it, failing the test on error.
func figureJSON(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	f, err := Run(id, opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("%s: marshal: %v", id, err)
	}
	return b
}

// TestParallelMatchesSequential is the engine's core guarantee: the same
// Options produce byte-identical Figure JSON at every parallelism level,
// across every refactored loop shape (user sweep, round sweep, the
// observer-based Fig. 5 collection, ablations, and the two-variant
// SAT/WST sweep).
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"fig6a", "fig6b", "fig5a", "fig5b", "ablation-weights", "ext-sat-vs-wst"} {
		t.Run(id, func(t *testing.T) {
			seq := tinyOpts()
			seq.Parallelism = 1
			sequential := figureJSON(t, id, seq)
			for _, workers := range []int{0, 2, 7} {
				par := tinyOpts()
				par.Parallelism = workers
				if got := figureJSON(t, id, par); string(got) != string(sequential) {
					t.Errorf("parallelism %d differs from sequential:\npar: %s\nseq: %s",
						workers, got, sequential)
				}
			}
		})
	}
}

// TestRunTrialsSlots checks the index-ordered result layout directly.
func TestRunTrialsSlots(t *testing.T) {
	opts := Options{Trials: 4, Parallelism: 3}
	out, err := runTrials(opts, 5, func(c, trial int) (int, error) {
		return c*100 + trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("configs = %d", len(out))
	}
	for c := range out {
		if len(out[c]) != 4 {
			t.Fatalf("config %d: trials = %d", c, len(out[c]))
		}
		for trial, v := range out[c] {
			if v != c*100+trial {
				t.Errorf("out[%d][%d] = %d", c, trial, v)
			}
		}
	}
}

// TestRunTrialsErrorPropagation checks that a failing trial surfaces its
// error at every parallelism level and cancels the sweep.
func TestRunTrialsErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		opts := Options{Trials: 10, Parallelism: workers}
		_, err := runTrials(opts, 8, func(c, trial int) (int, error) {
			if c == 3 && trial == 2 {
				return 0, fmt.Errorf("config %d trial %d: %w", c, trial, boom)
			}
			return 0, nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("parallelism %d: err = %v, want boom", workers, err)
		}
	}
}

// TestRunTrialsProgress checks the completion callback: one call per
// trial, monotonically increasing, ending at (total, total).
// TestRunTrialsIndexed pins the exported single-configuration runner:
// index-ordered results at every parallelism, the first failure in
// index order, and the argument checks.
func TestRunTrialsIndexed(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 3, 20} {
		got, err := RunTrials(10, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
		_, err = RunTrials(10, workers, func(i int) (int, error) {
			if i == 4 || i == 7 {
				return 0, fmt.Errorf("trial %d: %w", i, boom)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "trial 4: boom" {
			t.Errorf("parallelism %d: err = %v, want trial 4: boom", workers, err)
		}
	}
	if got, err := RunTrials(0, 2, func(int) (int, error) { return 1, nil }); err != nil || len(got) != 0 {
		t.Errorf("zero trials: %v, %v", got, err)
	}
	if _, err := RunTrials(-1, 1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative trial count accepted")
	}
	if _, err := RunTrials(3, -1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative parallelism accepted")
	}
}

func TestRunTrialsProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var calls []int
		total := -1
		opts := Options{Trials: 6, Parallelism: workers}
		opts.Progress = func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, done)
			total = tot
		}
		if _, err := runTrials(opts, 3, func(c, trial int) (int, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
		if total != 18 {
			t.Errorf("parallelism %d: total = %d, want 18", workers, total)
		}
		if len(calls) != 18 {
			t.Fatalf("parallelism %d: %d progress calls, want 18", workers, len(calls))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Errorf("parallelism %d: call %d reported done=%d", workers, i, d)
				break
			}
		}
	}
}

// TestOptionsValidate covers the negative-count rejection: before the
// fix these passed withDefaults untouched, ran zero trial iterations and
// averaged every series to NaN.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Trials: -1},
		{SeriesUsers: -5},
		{Rounds: -2},
		{Parallelism: -1},
		{UserSweep: []int{40, 0}},
		{UserSweep: []int{-10}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v) accepted", i, o)
		}
		if _, err := Run("fig6a", o); err == nil {
			t.Errorf("Run accepted bad[%d] (%+v)", i, o)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
	if err := quickOpts().Validate(); err != nil {
		t.Errorf("quickOpts rejected: %v", err)
	}
}

// TestRunnerRejectsNegativeTrials checks a runner called directly (not
// through Run) still refuses a corrupt option set instead of returning a
// NaN figure.
func TestRunnerRejectsNegativeTrials(t *testing.T) {
	o := tinyOpts()
	o.Trials = -3
	if _, err := paperSweep.run(o); err == nil {
		t.Error("the paper sweep accepted Trials = -3")
	}
	if _, err := ablationSweeps[0].run(o); err == nil {
		t.Error("ablation-weights accepted Trials = -3")
	}
}

// TestParallelRunnerStress fans many small simulations across workers;
// run with -race to catch engine locking mistakes.
func TestParallelRunnerStress(t *testing.T) {
	opts := Options{Trials: 12, Seed: 3, Parallelism: 8}
	cfgs := 10
	out, err := runTrials(opts, cfgs, func(c, trial int) (float64, error) {
		cfg := sim.Config{
			Workload:  workload.Config{NumTasks: 4, NumUsers: 8, Required: 2},
			Rounds:    3,
			Algorithm: sim.AlgorithmGreedy,
		}
		res, err := sim.Run(cfg, trialSeed(opts.Seed, c, trial))
		if err != nil {
			return 0, err
		}
		return res.Coverage, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run sequentially: every slot must match, independent of the
	// completion order under contention.
	opts.Parallelism = 1
	seq, err := runTrials(opts, cfgs, func(c, trial int) (float64, error) {
		cfg := sim.Config{
			Workload:  workload.Config{NumTasks: 4, NumUsers: 8, Required: 2},
			Rounds:    3,
			Algorithm: sim.AlgorithmGreedy,
		}
		res, err := sim.Run(cfg, trialSeed(opts.Seed, c, trial))
		if err != nil {
			return 0, err
		}
		return res.Coverage, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range out {
		for trial := range out[c] {
			if out[c][trial] != seq[c][trial] {
				t.Errorf("slot [%d][%d]: parallel %v != sequential %v",
					c, trial, out[c][trial], seq[c][trial])
			}
		}
	}
}
