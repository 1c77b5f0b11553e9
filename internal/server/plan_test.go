package server

import (
	"bytes"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"testing"

	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// planRequest is a valid baseline request tests mutate per case.
func planRequest(userID int) wire.PlanRequest {
	return wire.PlanRequest{
		UserID:       userID,
		Location:     geo.Pt(500, 500),
		Speed:        10,
		TimeBudget:   500,
		CostPerMeter: 0.01,
	}
}

func TestPlanEndpoint(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)

	var plan wire.PlanResponse
	code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), &plan)
	if code != http.StatusOK {
		t.Fatalf("plan: code %d", code)
	}
	if plan.Round != 1 {
		t.Errorf("plan round %d, want 1", plan.Round)
	}
	// The generous budget admits all three tasks; the plan must be
	// positive-profit and consistent with the published rewards.
	if len(plan.Order) == 0 {
		t.Fatal("empty plan despite generous budget")
	}
	if plan.Profit <= 0 || plan.Profit != plan.Reward-plan.Cost {
		t.Errorf("plan accounting: profit %v, reward %v, cost %v",
			plan.Profit, plan.Reward, plan.Cost)
	}
	round := p.Round()
	rewards := make(map[int]float64)
	for _, ti := range round.Tasks {
		rewards[int(ti.ID)] = ti.Reward
	}
	var want float64
	for _, id := range plan.Order {
		r, ok := rewards[int(id)]
		if !ok {
			t.Fatalf("plan includes unpublished task %d", id)
		}
		want += r
	}
	if math.Abs(plan.Reward-want) > 1e-9 {
		t.Errorf("plan reward %v, published sum %v", plan.Reward, want)
	}

	// A tiny budget from a position away from every task leaves nothing
	// reachable: empty plan, not an error.
	tiny := planRequest(reg.UserID)
	tiny.Location = geo.Pt(0, 0)
	tiny.TimeBudget = 0.001
	var empty wire.PlanResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, tiny, &empty); code != http.StatusOK {
		t.Fatalf("tiny-budget plan: code %d", code)
	}
	if len(empty.Order) != 0 {
		t.Errorf("tiny budget produced plan %v", empty.Order)
	}
}

func TestPlanEndpointRejections(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)

	cases := []struct {
		name string
		mut  func(*wire.PlanRequest)
		code int
	}{
		// NaN values are untestable over the wire (encoding/json cannot
		// produce them), so the handler's IsNaN guards are exercised only
		// as defense in depth against non-JSON callers of the mux.
		{"unknown worker", func(r *wire.PlanRequest) { r.UserID = 999 }, http.StatusNotFound},
		{"zero speed", func(r *wire.PlanRequest) { r.Speed = 0 }, http.StatusBadRequest},
		{"negative speed", func(r *wire.PlanRequest) { r.Speed = -5 }, http.StatusBadRequest},
		{"negative time budget", func(r *wire.PlanRequest) { r.TimeBudget = -1 }, http.StatusBadRequest},
		{"negative cost", func(r *wire.PlanRequest) { r.CostPerMeter = -0.1 }, http.StatusBadRequest},
		// Both finite, but their product, the travel budget, overflows.
		{"overflowing budget", func(r *wire.PlanRequest) { r.Speed, r.TimeBudget = 1e308, 1e308 }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := planRequest(reg.UserID)
			tc.mut(&req)
			if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, req, nil); code != tc.code {
				t.Errorf("code %d, want %d", code, tc.code)
			}
		})
	}

	// After the campaign ends, planning is a conflict.
	for i := 0; i < 10; i++ {
		var adv wire.AdvanceResponse
		doJSON(t, srv, http.MethodPost, wire.PathAdvance, nil, &adv)
		if adv.Done {
			break
		}
	}
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), nil); code != http.StatusConflict {
		t.Errorf("plan after done: code %d, want %d", code, http.StatusConflict)
	}
}

// TestPlanEndpointRejectsNonFiniteTLV sends the plan parameters JSON
// cannot carry, infinities and NaN, in TLV bodies: each is a client
// error, answered 400 before the platform records anything. An infinite
// speed with a zero time budget once made a NaN travel budget that the
// solver rejected with a 500.
func TestPlanEndpointRejectsNonFiniteTLV(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)
	code, before, _ := doTLV(t, srv, http.MethodGet, wire.PathStatus, nil)
	if code != http.StatusOK {
		t.Fatalf("status: code %d", code)
	}

	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		mut  func(*wire.PlanRequest)
	}{
		{"infinite speed, zero time budget", func(r *wire.PlanRequest) { r.Speed, r.TimeBudget = inf, 0 }},
		{"infinite speed", func(r *wire.PlanRequest) { r.Speed = inf }},
		{"infinite time budget", func(r *wire.PlanRequest) { r.TimeBudget = inf }},
		{"infinite cost", func(r *wire.PlanRequest) { r.CostPerMeter = inf }},
		{"NaN speed", func(r *wire.PlanRequest) { r.Speed = nan }},
		{"NaN time budget", func(r *wire.PlanRequest) { r.TimeBudget = nan }},
		{"NaN cost", func(r *wire.PlanRequest) { r.CostPerMeter = nan }},
		{"negative infinite time budget", func(r *wire.PlanRequest) { r.TimeBudget = -inf }},
		{"overflowing budget", func(r *wire.PlanRequest) { r.Speed, r.TimeBudget = 1e308, 1e308 }},
		{"infinite location", func(r *wire.PlanRequest) { r.Location.X = inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := planRequest(reg.UserID)
			req.Location = geo.Pt(100, 100)
			tc.mut(&req)
			code, body, _ := doTLV(t, srv, http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &req))
			if code != http.StatusBadRequest {
				t.Errorf("code %d (%q), want %d", code, body, http.StatusBadRequest)
			}
			if _, after, _ := doTLV(t, srv, http.MethodGet, wire.PathStatus, nil); !bytes.Equal(after, before) {
				t.Errorf("rejected plan changed status:\n before %s\n after  %s", before, after)
			}
		})
	}

	// The same request with finite parameters is served.
	req := planRequest(reg.UserID)
	if code, body, _ := doTLV(t, srv, http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &req)); code != http.StatusOK {
		t.Fatalf("finite plan: code %d (%q)", code, body)
	}
}

// TestPlanEndpointConcurrent hammers /v1/plan from many goroutines, some
// racing with round advances and uploads, to exercise the solver pool and
// the snapshot-under-lock handoff (run under -race in CI). Every response
// must be internally consistent regardless of which round it was solved
// against.
func TestPlanEndpointConcurrent(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	const workers = 16
	ids := make([]int, workers)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister,
			wire.RegisterRequest{Location: geo.Pt(float64(i*50), 500)}, &reg)
		ids[i] = reg.UserID
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers*8)
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				var plan wire.PlanResponse
				code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(id), &plan)
				if code != http.StatusOK && code != http.StatusConflict {
					errs <- "unexpected status"
					return
				}
				if code == http.StatusOK && plan.Profit < 0 {
					errs <- "negative-profit plan"
					return
				}
			}
		}(id)
	}
	// One goroutine advances rounds underneath the planners.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var adv wire.AdvanceResponse
			doJSON(t, srv, http.MethodPost, wire.PathAdvance, nil, &adv)
			if adv.Done {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if p.planners.Idle() == 0 {
		t.Error("solver pool recycled no instances after concurrent planning")
	}
}

// TestPlanEndpointCustomPlanner verifies the Planner factory is honored.
func TestPlanEndpointCustomPlanner(t *testing.T) {
	var mu sync.Mutex
	built := 0
	p := testPlatform(t)
	p.cfg.Planner = nil // testPlatform leaves it nil; rebuild with a counter
	p2, err := New(Config{
		Tasks:          p.cfg.Tasks,
		Mechanism:      p.cfg.Mechanism,
		Area:           p.cfg.Area,
		NeighborRadius: p.cfg.NeighborRadius,
		Logger:         p.cfg.Logger,
		Planner: func() selection.Algorithm {
			mu.Lock()
			built++
			mu.Unlock()
			return &selection.Greedy{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(p2)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)
	var plan wire.PlanResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), &plan); code != http.StatusOK {
		t.Fatalf("plan: code %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	if built == 0 {
		t.Error("custom Planner factory never invoked")
	}
}

// TestProblemContextSurvivesAdvanceAndRestore pins why plan solves need
// no hold on engine state: a problem built under the lock before an
// Advance or a Restore still holds the same candidates afterwards and
// solves to the same plan, while other workers plan concurrently (run
// under -race in CI, which reports any engine write to storage a solve
// is reading).
func TestProblemContextSurvivesAdvanceAndRestore(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()
	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg)
	if err := p.Reprice(); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()

	p.mu.Lock()
	problem, _ := p.eng.ProblemInto(engine.Spec{
		Start: geo.Pt(500, 500), MaxDistance: 5000, CostPerMeter: 0.01,
	}, engine.Worker(reg.UserID), nil)
	p.mu.Unlock()
	if len(problem.Candidates) < 2 {
		t.Fatalf("problem = %d candidates, want at least 2", len(problem.Candidates))
	}
	want := slices.Clone(problem.Candidates)
	wantPlan, err := (&selection.Auto{}).Select(problem)
	if err != nil {
		t.Fatal(err)
	}

	var wg, started sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			defer once.Do(started.Done)
			alg := &selection.Auto{}
			for {
				// The stale problem, solved outside the lock...
				got, err := alg.Select(problem)
				if err != nil || !reflect.DeepEqual(got, wantPlan) {
					errs <- "stale problem solved differently"
					return
				}
				// ...beside live plans against whatever round is current.
				code := doJSON(t, srv, http.MethodPost, wire.PathPlan, planRequest(reg.UserID), nil)
				if code != http.StatusOK && code != http.StatusConflict {
					errs <- "unexpected plan status"
					return
				}
				once.Do(started.Done)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < 3; i++ {
		if _, _, err := p.Advance(); err != nil {
			t.Error(err)
		}
		if err := p.Restore(snap); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if !slices.Equal(problem.Candidates, want) {
		t.Errorf("candidates after advance and restore = %+v, want %+v", problem.Candidates, want)
	}
}
