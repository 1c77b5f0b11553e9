package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// trialJSON runs one simulation and returns its serialized result plus the
// raw TrialResult (for the engine's json-excluded diagnostics).
func trialJSON(t *testing.T, cfg Config, seed int64) ([]byte, metrics.TrialResult) {
	t.Helper()
	s, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw, res
}

// TestParallelRoundDeterminism verifies the speculative engine's core
// contract: for every solver, trial JSON is byte-identical between the
// sequential loop and the parallel engine at worker counts 2 and 8.
func TestParallelRoundDeterminism(t *testing.T) {
	algorithms := []AlgorithmKind{AlgorithmDP, AlgorithmGreedy, AlgorithmTwoOpt, AlgorithmAuto, AlgorithmBeam}
	scenarios := []struct {
		name string
		cfg  Config
	}{
		{
			// Paper-shaped workload, shrunk for DP tractability.
			name: "paper",
			cfg: Config{
				Workload: workload.Config{NumUsers: 40, NumTasks: 12, Required: 8},
				Rounds:   6,
			},
		},
		{
			// High contention: phi = 1 and far more users than tasks, so
			// almost every commit fills a task and forces replays of every
			// later user still holding it as a candidate.
			name: "contention",
			cfg: Config{
				Workload: workload.Config{NumUsers: 60, NumTasks: 10, Required: 1},
				Rounds:   4,
			},
		},
		{
			// Mobility + churn exercise the post-selection RNG draws, which
			// must be reached in the same stream positions either way.
			name: "churn",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 30, NumTasks: 10, Required: 5},
				Rounds:    5,
				ChurnRate: 0.1,
				Mobility:  MobilityRandomWaypoint,
			},
		},
		{
			// Bids + budget capability: the auction's bid assembly is a
			// function of the round-start user slice, which speculation
			// must not disturb.
			name: "auction",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 50, NumTasks: 12, Required: 4},
				Rounds:    5,
				Mechanism: MechanismAuction,
			},
		},
		{
			// Mobility-forecast capability under moving users.
			name: "incentme",
			cfg: Config{
				Workload:            workload.Config{NumUsers: 50, NumTasks: 12, Required: 4},
				Rounds:              5,
				Mechanism:           MechanismIncentMe,
				Mobility:            MobilityRandomWaypoint,
				MobilityUncertainty: 0.3,
			},
		},
	}
	for _, alg := range algorithms {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", alg, sc.name), func(t *testing.T) {
				cfg := sc.cfg
				cfg.Algorithm = alg
				seq, seqRes := trialJSON(t, cfg, 404)
				if seqRes.ConflictReplays != 0 || seqRes.SpeculativeSolves != 0 {
					t.Fatalf("sequential run reported engine diagnostics: %d/%d",
						seqRes.SpeculativeSolves, seqRes.ConflictReplays)
				}
				for _, workers := range []int{1, 2, 8} {
					pcfg := cfg
					pcfg.RoundParallelism = workers
					par, parRes := trialJSON(t, pcfg, 404)
					if !bytes.Equal(seq, par) {
						t.Errorf("workers=%d: trial JSON differs from sequential (lens %d vs %d)",
							workers, len(seq), len(par))
					}
					if workers > 1 && parRes.SpeculativeSolves == 0 {
						t.Errorf("workers=%d: engine reported no speculative solves", workers)
					}
					if sc.name == "contention" && workers > 1 && parRes.ConflictReplays == 0 {
						t.Errorf("workers=%d: contention scenario forced no replays", workers)
					}
				}
			})
		}
	}
}

// TestParallelRoundTraceDeterminism verifies that the full observer event
// stream — including per-user plans and candidate counts, in commit order
// — is byte-identical between sequential and parallel runs.
func TestParallelRoundTraceDeterminism(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{NumUsers: 50, NumTasks: 10, Required: 2},
		Rounds:   4,
	}
	run := func(workers int) []byte {
		t.Helper()
		c := cfg
		c.RoundParallelism = workers
		s, err := New(c, 99)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		obs := NewTraceObserver(&buf)
		if _, err := s.Run(obs); err != nil {
			t.Fatal(err)
		}
		if err := obs.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		if par := run(workers); !bytes.Equal(seq, par) {
			t.Errorf("workers=%d: trace differs from sequential", workers)
		}
	}
}

// TestParallelRoundReplayedPlansDropClosedTasks pins the conflict-replay
// semantics with the Plan.Touches helper: in a phi = 1 scenario, no two
// committed plans may touch the same task, even though many speculative
// plans raced for the same ones.
func TestParallelRoundReplayedPlansDropClosedTasks(t *testing.T) {
	cfg := Config{
		Workload:         workload.Config{NumUsers: 60, NumTasks: 10, Required: 1},
		Rounds:           3,
		Algorithm:        AlgorithmGreedy,
		RoundParallelism: 4,
	}
	s, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	committed := make(map[task.ID]int)
	obs := &planRecorder{onPlan: func(plan selection.Plan) {
		mu.Lock()
		defer mu.Unlock()
		for id := range committed {
			if plan.Touches(id) {
				committed[id]++
			}
		}
		for _, id := range plan.Order {
			if _, seen := committed[id]; !seen {
				committed[id] = 1
			}
		}
	}}
	res, err := s.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range committed {
		if n > 1 {
			t.Errorf("task %d committed by %d plans despite phi = 1", id, n)
		}
	}
	if res.ConflictReplays == 0 {
		t.Error("phi = 1 contention produced no conflict replays")
	}
}

type planRecorder struct {
	BaseObserver
	onPlan func(selection.Plan)
}

func (r *planRecorder) UserPlanned(_ int, _ int, _ selection.Problem, plan selection.Plan) {
	if !plan.Empty() {
		r.onPlan(plan)
	}
}

// TestRoundParallelismValidate covers the config plumbing.
func TestRoundParallelismValidate(t *testing.T) {
	cfg := Config{Workload: workload.Config{NumUsers: 5, NumTasks: 3}}
	cfg.RoundParallelism = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative RoundParallelism validated")
	}
	cfg.RoundParallelism = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("RoundParallelism 0 rejected: %v", err)
	}
	cfg.RoundParallelism = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("RoundParallelism 8 rejected: %v", err)
	}
}

// TestParallelRoundStress hammers the speculative engine under -race with
// many trials of small simulations at varying worker counts, checking each
// against its sequential twin.
func TestParallelRoundStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := stats.NewRNG(123)
	for trial := 0; trial < 12; trial++ {
		cfg := Config{
			Workload: workload.Config{
				NumUsers: rng.IntBetween(5, 40),
				NumTasks: rng.IntBetween(3, 15),
				Required: rng.IntBetween(1, 4),
			},
			Rounds:    rng.IntBetween(2, 4),
			Algorithm: AlgorithmAuto,
		}
		seed := rng.Int63()
		seq, _ := trialJSON(t, cfg, seed)
		cfg.RoundParallelism = rng.IntBetween(2, 8)
		par, _ := trialJSON(t, cfg, seed)
		if !bytes.Equal(seq, par) {
			t.Fatalf("trial %d (workers=%d): parallel output diverged", trial, cfg.RoundParallelism)
		}
	}
}
