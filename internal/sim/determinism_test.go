package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// trialJSON runs one simulation and returns its serialized result.
func trialJSON(t *testing.T, cfg Config, seed int64) []byte {
	t.Helper()
	res, err := Run(cfg, seed)
	if err != nil {
		t.Error(err)
		return nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Error(err)
	}
	return raw
}

// twice runs run on two goroutines at once and returns both outputs. The
// trial-level parallel runners execute independent simulations this way,
// so under -race this also shows two simulations share no mutable state.
func twice(run func() []byte) (a, b []byte) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = run() }()
	go func() { defer wg.Done(); b = run() }()
	wg.Wait()
	return a, b
}

// TestParallelRoundDeterminism verifies that trial output is a pure
// function of the seed: for every solver and scenario, two simulations
// with the same seed, running concurrently, produce byte-identical trial
// JSON.
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
			// almost every commit fills a task that later users of the
			// round can no longer select.
			name: "contention",
			cfg: Config{
				Workload: workload.Config{NumUsers: 60, NumTasks: 10, Required: 1},
				Rounds:   4,
			},
		},
		{
			// Mobility + churn exercise the post-selection RNG draws.
			name: "churn",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 30, NumTasks: 10, Required: 5},
				Rounds:    5,
				ChurnRate: 0.1,
				Mobility:  MobilityRandomWaypoint,
			},
		},
		{
			// The auction reads the budget and builds its bids from the
			// round-start user slice.
			name: "auction",
			cfg: Config{
				Workload:  workload.Config{NumUsers: 50, NumTasks: 12, Required: 4},
				Rounds:    5,
				Mechanism: MechanismAuction,
			},
		},
		{
			// IncentMe reads the mobility forecast under moving users.
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
				a, b := twice(func() []byte { return trialJSON(t, cfg, 404) })
				if !bytes.Equal(a, b) {
					t.Errorf("same seed, different trial JSON (lens %d vs %d)", len(a), len(b))
				}
			})
		}
	}
}

// TestParallelRoundTraceDeterminism verifies that the full observer event
// stream — including per-user plans and candidate counts, in acting order
// — is byte-identical between two concurrent runs with the same seed.
func TestParallelRoundTraceDeterminism(t *testing.T) {
	cfg := Config{
		Workload: workload.Config{NumUsers: 50, NumTasks: 10, Required: 2},
		Rounds:   4,
	}
	a, b := twice(func() []byte {
		s, err := New(cfg, 99)
		if err != nil {
			t.Error(err)
			return nil
		}
		var buf bytes.Buffer
		obs := NewTraceObserver(&buf)
		if _, err := s.Run(obs); err != nil {
			t.Error(err)
		}
		if err := obs.Err(); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	})
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("same seed, different traces (lens %d vs %d)", len(a), len(b))
	}
}

// TestParallelRoundReplayedPlansDropClosedTasks pins the WST round's
// ordering semantics in a phi = 1 scenario: each user plans against the
// board as the earlier users' commits left it, so no user is offered a
// task an earlier plan filled, and no two plans commit the same task.
func TestParallelRoundReplayedPlansDropClosedTasks(t *testing.T) {
	cfg := Config{
		Workload:  workload.Config{NumUsers: 60, NumTasks: 10, Required: 1},
		Rounds:    3,
		Algorithm: AlgorithmGreedy,
	}
	s, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[task.ID]bool)
	obs := &planRecorder{onPlan: func(problem selection.Problem, plan selection.Plan) {
		for _, c := range problem.Candidates {
			if committed[c.ID] {
				t.Errorf("task %d offered after an earlier plan filled it", c.ID)
			}
		}
		for _, id := range plan.Order {
			if committed[id] {
				t.Errorf("task %d committed by two plans despite phi = 1", id)
			}
			committed[id] = true
		}
	}}
	res, err := s.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	contended := false
	for _, rs := range res.Rounds {
		contended = contended || rs.ActiveUsers > 1
	}
	if !contended {
		t.Error("no round had two committing users; the scenario exercises nothing")
	}
}

type planRecorder struct {
	BaseObserver
	onPlan func(selection.Problem, selection.Plan)
}

func (r *planRecorder) UserPlanned(_ int, _ int, problem selection.Problem, plan selection.Plan) {
	r.onPlan(problem, plan)
}

// TestRoundParallelismValidate pins the compatibility contract of the
// removed parallel round engine: 0 and 1 (both the sequential loop) still
// validate, and any other value fails loudly instead of silently running
// sequentially.
func TestRoundParallelismValidate(t *testing.T) {
	cfg := Config{Workload: workload.Config{NumUsers: 5, NumTasks: 3}}
	for _, n := range []int{0, 1} {
		cfg.RoundParallelism = n
		if err := cfg.Validate(); err != nil {
			t.Errorf("RoundParallelism %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{-1, 2, 8} {
		cfg.RoundParallelism = n
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "round parallelism was removed") {
			t.Errorf("RoundParallelism %d: Validate err = %v, want the removed-engine error", n, err)
		}
	}
}
