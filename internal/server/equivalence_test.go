package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/incentive"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/workload"
)

// TestSimServerEquivalence locks the platform and the simulator to the
// same round semantics: both are drivers over the shared engine, so a
// campaign driven over the HTTP API — same scenario, same mechanism, same
// per-round worker behavior — must reproduce the simulator's published
// rewards, plans, and final metrics byte for byte.
//
// The mirror observer replays every simulator event against an in-process
// Platform: at each round start it advances and reprices the server, at
// each user turn it requests a plan over the wire and uploads the
// resulting measurements, keeping both boards in lockstep. Any drift —
// a reward off by one ULP, a differently ordered plan, a rejected
// upload — fails the test at the exact round and user where it appears.
//
// The equivalence holds under the conditions the wire protocol can
// express: a mechanism that prices every open task (the paper's
// on-demand scheme does), no sensing time, no churn, no jitter,
// stationary between-round mobility, and sequential user turns.
func TestSimServerEquivalence(t *testing.T) {
	const seed = 7

	wl := workload.Config{
		NumTasks: 10,
		NumUsers: 15,
		Required: 3,
	}
	sc, err := workload.Generate(stats.NewRNG(seed), wl)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sim.Config{
		Workload:  wl,
		Mechanism: sim.MechanismOnDemand,
		Algorithm: sim.AlgorithmGreedy,
		Mobility:  sim.MobilityStationary,
	}
	s, err := sim.NewFromScenario(cfg, sc, seed+1)
	if err != nil {
		t.Fatal(err)
	}

	// The platform prices with its own mechanism instance, built from the
	// same scheme parameters the simulator's defaults resolve to. Both
	// instances see identical (round, views) call sequences, so any
	// internal mechanism state evolves identically.
	totalRequired := 0
	for _, tk := range sc.Tasks {
		totalRequired += tk.Required
	}
	scheme, err := incentive.SchemeFromBudget(
		sim.DefaultBudget, totalRequired, sim.DefaultRewardLambda,
		demand.LevelMapper{N: sim.DefaultDemandLevels})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tasks:          sc.Tasks,
		Mechanism:      mech,
		Area:           sc.Area,
		NeighborRadius: sim.DefaultNeighborRadius,
		Planner:        func() selection.Algorithm { return &selection.Greedy{} },
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(p)
	defer srv.Close()

	m := &mirrorObserver{t: t, p: p, srv: srv, sc: sc}
	result, err := s.Run(m)
	if err != nil {
		t.Fatal(err)
	}

	// Final campaign metrics, byte for byte.
	var status wire.StatusResponse
	if code := doJSON(t, srv, http.MethodGet, wire.PathStatus, nil, &status); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if status.TotalMeasurements != result.TotalMeasurements {
		t.Errorf("TotalMeasurements = %d, sim %d", status.TotalMeasurements, result.TotalMeasurements)
	}
	if status.TotalRewardPaid != result.TotalRewardPaid {
		t.Errorf("TotalRewardPaid = %v, sim %v", status.TotalRewardPaid, result.TotalRewardPaid)
	}
	if status.Coverage != result.Coverage {
		t.Errorf("Coverage = %v, sim %v", status.Coverage, result.Coverage)
	}
	if status.OverallCompleteness != result.OverallCompleteness {
		t.Errorf("OverallCompleteness = %v, sim %v", status.OverallCompleteness, result.OverallCompleteness)
	}
	if status.AvgRewardPerMeasurement != result.AvgRewardPerMeasurement {
		t.Errorf("AvgRewardPerMeasurement = %v, sim %v", status.AvgRewardPerMeasurement, result.AvgRewardPerMeasurement)
	}
	if result.TotalMeasurements == 0 {
		t.Fatal("degenerate scenario: no measurements were made")
	}
	if !status.Done {
		t.Errorf("server not done after %d rounds", result.RoundsRun)
	}
}

// mirrorObserver replays simulator events against a Platform over HTTP.
// Worker IDs line up with simulator user IDs because both sides assign
// them sequentially from 1 in registration order.
type mirrorObserver struct {
	sim.BaseObserver
	t    *testing.T
	p    *Platform
	srv  *httptest.Server
	sc   workload.Scenario
	done bool
}

func (m *mirrorObserver) RoundStart(round int, rewards map[task.ID]float64) {
	t := m.t
	t.Helper()
	if round == 1 {
		// Register every worker at its scenario start location, then
		// reprice: the constructor priced round 1 over an empty registry,
		// and the simulator's round-1 demand factors count all users.
		for i, loc := range m.sc.UserLocations {
			var reg wire.RegisterResponse
			if code := doJSON(t, m.srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: loc}, &reg); code != http.StatusOK {
				t.Fatalf("round %d: register worker %d: HTTP %d", round, i+1, code)
			}
			if reg.UserID != i+1 {
				t.Fatalf("round %d: worker got ID %d, sim user is %d", round, reg.UserID, i+1)
			}
		}
		if err := m.p.Reprice(); err != nil {
			t.Fatalf("round 1 reprice: %v", err)
		}
	} else if !m.done {
		if _, done, err := m.p.Advance(); err != nil {
			t.Fatalf("round %d advance: %v", round, err)
		} else if done {
			m.done = true
		}
	}
	if m.done {
		// The server latches done as soon as every task is settled; the
		// simulator keeps looping to its fixed horizon, publishing nothing.
		if len(rewards) != 0 {
			t.Fatalf("round %d: server done but sim published %d rewards", round, len(rewards))
		}
		return
	}

	info := m.p.Round()
	if info.Round != round {
		t.Fatalf("server round %d, sim round %d", info.Round, round)
	}
	if len(info.Tasks) != len(rewards) {
		t.Fatalf("round %d: server published %d tasks, sim %d", round, len(info.Tasks), len(rewards))
	}
	for _, tk := range info.Tasks {
		if r, ok := rewards[tk.ID]; !ok || r != tk.Reward {
			t.Errorf("round %d task %d: server reward %v, sim %v", round, tk.ID, tk.Reward, r)
		}
	}
}

func (m *mirrorObserver) UserPlanned(round, userID int, problem selection.Problem, plan selection.Plan) {
	t := m.t
	t.Helper()
	if m.done {
		t.Fatalf("round %d user %d: planned after server done", round, userID)
	}

	// Plan over the wire from the same position with the same budget the
	// simulator's user had (no jitter, so the defaults are exact), against
	// the same board state: the simulator commits each user's plan before
	// the next user solves, and the mirror submits below before returning.
	var resp wire.PlanResponse
	req := wire.PlanRequest{
		UserID:       userID,
		Location:     problem.Start,
		Speed:        sim.DefaultUserSpeed,
		TimeBudget:   sim.DefaultUserTimeBudget,
		CostPerMeter: sim.DefaultCostPerMeter,
	}
	if code := doJSON(t, m.srv, http.MethodPost, wire.PathPlan, req, &resp); code != http.StatusOK {
		t.Fatalf("round %d user %d: plan: HTTP %d", round, userID, code)
	}
	if resp.Round != round {
		t.Fatalf("round %d user %d: plan solved against round %d", round, userID, resp.Round)
	}
	if !slices.Equal(resp.Order, plan.Order) {
		t.Fatalf("round %d user %d: server order %v, sim %v", round, userID, resp.Order, plan.Order)
	}
	if resp.Distance != plan.Distance || resp.Reward != plan.Reward ||
		resp.Cost != plan.Cost || resp.Profit != plan.Profit {
		t.Fatalf("round %d user %d: server plan (%v %v %v %v), sim (%v %v %v %v)",
			round, userID,
			resp.Distance, resp.Reward, resp.Cost, resp.Profit,
			plan.Distance, plan.Reward, plan.Cost, plan.Profit)
	}
	if plan.Empty() {
		return
	}

	// Upload the plan's measurements, ending where the walk ends — the
	// location the next round's demand factors see for this worker.
	end, _ := plan.Path.End()
	sub := wire.SubmitRequest{UserID: userID, Round: round, Location: end}
	for _, id := range plan.Order {
		sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: id})
	}
	var subResp wire.SubmitResponse
	if code := doJSON(t, m.srv, http.MethodPost, wire.PathSubmit, sub, &subResp); code != http.StatusOK {
		t.Fatalf("round %d user %d: submit: HTTP %d", round, userID, code)
	}
	for _, res := range subResp.Results {
		if !res.Accepted {
			t.Fatalf("round %d user %d task %d: rejected: %s", round, userID, res.TaskID, res.Reason)
		}
	}
	if subResp.TotalPaid != plan.Reward {
		t.Fatalf("round %d user %d: paid %v, plan reward %v", round, userID, subResp.TotalPaid, plan.Reward)
	}
}
