package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
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

// TestRestartEquivalence is the restart oracle: a campaign snapshotted
// after round k and restored into a fresh Platform, built from the same
// seeded config, must go on exactly as the campaign that never stopped.
// The restart sends nothing over the wire, so for every k the transcript
// (every published round, plan, upload result and the final status) is
// byte-equal to the uninterrupted run's, and the restored platform's
// snapshot equals the one it was restored from.
//
// Mechanism state is not in the snapshot. The fixed mechanism's levels
// survive a restart only because New reprices round 1, with every task
// open and in board order, so the fresh platform draws every task's
// level from the same seeded stream; this oracle pins that coupling.
func TestRestartEquivalence(t *testing.T) {
	for _, kind := range []sim.MechanismKind{
		sim.MechanismOnDemand, sim.MechanismFixed, sim.MechanismSteered,
		sim.MechanismAuction, sim.MechanismIncentMe,
	} {
		for _, tlv := range []bool{false, true} {
			codec := "json"
			if tlv {
				codec = "tlv"
			}
			t.Run(kind.String()+"/"+codec, func(t *testing.T) {
				want, rounds := restartCampaign(t, kind, tlv, 0)
				if rounds < 3 {
					t.Fatalf("degenerate campaign: %d rounds", rounds)
				}
				for k := 1; k <= rounds; k++ {
					got, _ := restartCampaign(t, kind, tlv, k)
					if !bytes.Equal(got, want) {
						gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
						for i := 0; i < len(gl) && i < len(wl); i++ {
							if gl[i] != wl[i] {
								t.Fatalf("restart after round %d: transcript line %d:\ngot:  %s\nwant: %s", k, i+1, gl[i], wl[i])
							}
						}
						t.Fatalf("restart after round %d: transcript has %d lines, want %d", k, len(gl), len(wl))
					}
				}
			})
		}
	}
}

// restartSeed seeds the restart oracle's scenario and mechanism stream.
const restartSeed = 11

// restartPlatform builds the restart oracle's platform as cmd/platform
// does: the seeded scenario's tasks, an Eq. 9 reward scheme, the seeded
// mechanism stream, a budget, a bid cost and a stationary forecast.
// Every call builds the same platform.
func restartPlatform(t *testing.T, kind sim.MechanismKind, sc workload.Scenario) *Platform {
	t.Helper()
	const (
		budget = 300.0
		radius = 500.0
	)
	totalRequired := 0
	for _, tk := range sc.Tasks {
		totalRequired += tk.Required
	}
	scheme, err := incentive.SchemeFromBudget(budget, totalRequired, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := sim.NewMechanism(kind, scheme)
	if err != nil {
		t.Fatal(err)
	}
	forecast, err := mobility.NewForecast(mobility.Stationary{}, 0.25, sc.Area, radius, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tasks:          sc.Tasks,
		Mechanism:      mech,
		Area:           sc.Area,
		NeighborRadius: radius,
		Logger:         discardLogger(),
		RNG:            stats.NewRNG(restartSeed + 1),
		Budget:         budget,
		CostPerMeter:   0.01,
		Forecast:       forecast,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// restartCampaign runs the restart oracle's campaign on a platform of
// kind in one codec and returns its transcript and the number of rounds
// played. Workers register at the scenario's user locations; each round
// the full round is fetched, every worker plans and uploads its plan,
// ending at its last task, and the round is advanced until the campaign
// is done. With restartAfter = k > 0 the platform is snapshotted after
// round k's advance and replaced by a fresh restartPlatform restored
// from the snapshot's JSON.
func restartCampaign(t *testing.T, kind sim.MechanismKind, tlv bool, restartAfter int) ([]byte, int) {
	t.Helper()
	sc, err := workload.Generate(stats.NewRNG(restartSeed), workload.Config{Area: geo.Square(1000), NumTasks: 8, NumUsers: 6, Required: 4})
	if err != nil {
		t.Fatal(err)
	}
	taskAt := make(map[task.ID]geo.Point, len(sc.Tasks))
	for _, tk := range sc.Tasks {
		taskAt[tk.ID] = tk.Location
	}
	p := restartPlatform(t, kind, sc)
	var out bytes.Buffer
	c := &transcriptClient{t: t, srv: newServer(p), tlv: tlv, out: &out}
	defer func() { c.srv.Close() }()

	locs := append([]geo.Point(nil), sc.UserLocations...)
	for _, loc := range locs {
		c.call(http.MethodPost, wire.PathRegister, 0, c.encode(&wire.RegisterRequest{Location: loc}), false)
	}
	round := 1
	for ; ; round++ {
		c.call(http.MethodGet, wire.PathRound, 0, nil, false)
		for i := range locs {
			id := i + 1
			plan := c.plan(&wire.PlanRequest{
				UserID: id, Location: locs[i], Speed: 10, TimeBudget: 60, CostPerMeter: 0.01,
			})
			if len(plan.Order) == 0 {
				continue
			}
			sub := wire.SubmitRequest{UserID: id, Round: round}
			for k, tid := range plan.Order {
				sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: tid, Value: float64(10*id + k)})
			}
			locs[i] = taskAt[plan.Order[len(plan.Order)-1]]
			sub.Location = locs[i]
			c.call(http.MethodPost, wire.PathSubmit, 0, c.encode(&sub), tlv)
		}
		var adv wire.AdvanceResponse
		if err := json.Unmarshal(c.call(http.MethodPost, wire.PathAdvance, 0, []byte("{}"), false), &adv); err != nil {
			t.Fatal(err)
		}
		if round == restartAfter {
			var snap bytes.Buffer
			if err := p.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			s, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			p = restartPlatform(t, kind, sc)
			if err := p.Restore(s); err != nil {
				t.Fatalf("restore after round %d: %v", round, err)
			}
			var restored bytes.Buffer
			if err := p.WriteSnapshot(&restored); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(restored.Bytes(), snap.Bytes()) {
				t.Fatalf("restore after round %d: snapshot of the restored platform differs:\n%s\nwant:\n%s", round, restored.Bytes(), snap.Bytes())
			}
			c.srv.Close()
			c.srv = newServer(p)
		}
		if adv.Done {
			break
		}
	}
	c.call(http.MethodGet, wire.PathStatus, 0, nil, false)
	return out.Bytes(), round
}
