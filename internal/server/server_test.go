package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// testPlatform builds a small platform: 3 tasks needing 2 measurements
// each, on-demand pricing.
func testPlatform(t *testing.T) *Platform {
	t.Helper()
	scheme, err := incentive.SchemeFromBudget(100, 6, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tasks: []task.Task{
			{ID: 1, Location: geo.Pt(100, 100), Deadline: 3, Required: 2},
			{ID: 2, Location: geo.Pt(900, 900), Deadline: 5, Required: 2},
			{ID: 3, Location: geo.Pt(500, 500), Deadline: 2, Required: 2},
		},
		Mechanism:      mech,
		Area:           geo.Square(1000),
		NeighborRadius: 200,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newServer starts a test server for p that checks, after every request,
// that the handler released p.mu (see checkUnlocked).
func newServer(p *Platform) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.ServeHTTP(w, r)
		checkUnlocked(p, r.Method, r.URL.Path)
	}))
}

// lockDeadline bounds how long checkUnlocked waits for p.mu. Concurrent
// requests hold it legitimately, but only for the length of a handler.
const lockDeadline = 5 * time.Second

// checkUnlocked takes and releases p.mu after a request to method path
// returned. If it cannot within lockDeadline, the handler leaked the
// lock: it panics from the timer's goroutine, which no HTTP server
// recovers, so the test binary stops at once and names the request
// instead of hanging the next one until -timeout.
func checkUnlocked(p *Platform, method, path string) {
	leak := time.AfterFunc(lockDeadline, func() {
		panic(fmt.Sprintf("%s %s returned with the platform mutex held", method, path))
	})
	p.mu.Lock()
	p.mu.Unlock()
	leak.Stop()
}

// doJSON posts v and decodes the response into out, returning the status.
func doJSON(t *testing.T, srv *httptest.Server, method, path string, v, out any) int {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, srv.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", path, err, data)
		}
	}
	return resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil mechanism accepted")
	}
	mech := incentive.NewSteered()
	if _, err := New(Config{Mechanism: mech, Area: geo.Rect{}, NeighborRadius: 10}); err == nil {
		t.Error("empty area accepted")
	}
	if _, err := New(Config{Mechanism: mech, Area: geo.Square(10), NeighborRadius: 0}); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestHealthAndStatus(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()
	if code := doJSON(t, srv, http.MethodGet, wire.PathHealth, nil, nil); code != 200 {
		t.Errorf("health = %d", code)
	}
	var status wire.StatusResponse
	if code := doJSON(t, srv, http.MethodGet, wire.PathStatus, nil, &status); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if status.Round != 1 || status.OpenTasks != 3 || status.Workers != 0 {
		t.Errorf("status = %+v", status)
	}
}

func TestRegisterAndRound(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	var reg wire.RegisterResponse
	code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(10, 10)}, &reg)
	if code != 200 || reg.UserID != 1 {
		t.Fatalf("register: code %d, %+v", code, reg)
	}
	var reg2 wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(20, 20)}, &reg2)
	if reg2.UserID != 2 {
		t.Errorf("second worker id = %d", reg2.UserID)
	}

	var round wire.RoundInfo
	if code := doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &round); code != 200 {
		t.Fatalf("round = %d", code)
	}
	if round.Round != 1 || round.Done || len(round.Tasks) != 3 {
		t.Fatalf("round = %+v", round)
	}
	for _, tk := range round.Tasks {
		if tk.Reward <= 0 {
			t.Errorf("task %d reward %v", tk.ID, tk.Reward)
		}
	}
}

func TestSubmitFlow(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)

	var resp wire.SubmitResponse
	code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID: reg.UserID,
		Round:  1,
		Measurements: []wire.Measurement{
			{TaskID: 1, Value: 55.5},
			{TaskID: 99, Value: 1},
		},
		Location: geo.Pt(100, 100),
	}, &resp)
	if code != 200 {
		t.Fatalf("submit = %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !resp.Results[0].Accepted || resp.Results[0].Reward <= 0 {
		t.Errorf("task 1 result = %+v", resp.Results[0])
	}
	if resp.Results[1].Accepted || resp.Results[1].Reason != "unknown task" {
		t.Errorf("unknown task result = %+v", resp.Results[1])
	}
	if resp.TotalPaid != resp.Results[0].Reward {
		t.Errorf("TotalPaid = %v", resp.TotalPaid)
	}
}

func TestSubmitRejections(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)

	// Unknown worker.
	if code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID: 999, Round: 1,
	}, nil); code != http.StatusNotFound {
		t.Errorf("unknown worker = %d", code)
	}
	// Stale round.
	if code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID: reg.UserID, Round: 7,
	}, nil); code != http.StatusConflict {
		t.Errorf("stale round = %d", code)
	}
	// Malformed body.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+wire.PathSubmit, bytes.NewReader([]byte("{not json")))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	// Unknown fields rejected.
	req2, _ := http.NewRequest(http.MethodPost, srv.URL+wire.PathSubmit, bytes.NewReader([]byte(`{"bogus_field": 1}`)))
	resp2, err := srv.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d", resp2.StatusCode)
	}
}

func TestDoubleContribution(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)

	submit := func() wire.SubmitResponse {
		var resp wire.SubmitResponse
		doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
			UserID:       reg.UserID,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: 1}},
			Location:     geo.Pt(0, 0),
		}, &resp)
		return resp
	}
	first := submit()
	if !first.Results[0].Accepted {
		t.Fatalf("first = %+v", first.Results[0])
	}
	second := submit()
	if second.Results[0].Accepted || second.Results[0].Reason != "already contributed" {
		t.Errorf("second = %+v", second.Results[0])
	}
}

func TestTaskFillsUp(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	ids := make([]int, 3)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)
		ids[i] = reg.UserID
	}
	results := make([]wire.SubmitResult, 0, 3)
	for _, id := range ids {
		var resp wire.SubmitResponse
		doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
			UserID:       id,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: 1}},
			Location:     geo.Pt(0, 0),
		}, &resp)
		results = append(results, resp.Results[0])
	}
	// Task 1 requires 2 measurements: third submitter is turned away.
	if !results[0].Accepted || !results[1].Accepted {
		t.Errorf("first two rejected: %+v", results)
	}
	if results[2].Accepted || results[2].Reason != "task complete" {
		t.Errorf("third = %+v", results[2])
	}
}

func TestAdvanceToCompletion(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	rounds := []int{}
	for i := 0; i < 10; i++ {
		var adv wire.AdvanceResponse
		if code := doJSON(t, srv, http.MethodPost, wire.PathAdvance, struct{}{}, &adv); code != 200 {
			t.Fatalf("advance = %d", code)
		}
		rounds = append(rounds, adv.Round)
		if adv.Done {
			break
		}
	}
	// Max deadline is 5; with no submissions every task expires, so the
	// campaign ends at round 6.
	last := rounds[len(rounds)-1]
	if last != 6 {
		t.Errorf("campaign ended at round %d, want 6 (rounds: %v)", last, rounds)
	}
	var status wire.StatusResponse
	doJSON(t, srv, http.MethodGet, wire.PathStatus, nil, &status)
	if !status.Done {
		t.Error("status not done after completion")
	}
	// Submissions after completion are rejected.
	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{}, &reg)
	if code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID: reg.UserID, Round: 6,
	}, nil); code != http.StatusConflict {
		t.Errorf("submit after done = %d", code)
	}
}

func TestRewardsChangeWithDemand(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var before wire.RoundInfo
	doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &before)
	rewardBefore := map[task.ID]float64{}
	for _, tk := range before.Tasks {
		rewardBefore[tk.ID] = tk.Reward
	}

	// Fill half of task 1, then advance: its demand (and reward) must not
	// increase relative to the untouched task 2 at the same deadline
	// distance... task deadlines differ, so just assert rewards moved.
	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(100, 100)}, &reg)
	doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
		UserID:       reg.UserID,
		Round:        1,
		Measurements: []wire.Measurement{{TaskID: 1, Value: 42}},
		Location:     geo.Pt(100, 100),
	}, nil)
	doJSON(t, srv, http.MethodPost, wire.PathAdvance, struct{}{}, nil)

	var after wire.RoundInfo
	doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &after)
	if after.Round != 2 {
		t.Fatalf("round = %d", after.Round)
	}
	changed := false
	for _, tk := range after.Tasks {
		if rewardBefore[tk.ID] != tk.Reward {
			changed = true
		}
		if tk.ID == 1 && tk.Received != 1 {
			t.Errorf("task 1 received = %d", tk.Received)
		}
	}
	if !changed {
		t.Error("no reward changed between rounds despite demand changes")
	}
	if p.Values(1)[0] != 42 {
		t.Errorf("stored value = %v", p.Values(1))
	}
}

func TestHardBudgetStopsPayouts(t *testing.T) {
	scheme, err := incentive.SchemeFromBudget(100, 6, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tasks: []task.Task{
			{ID: 1, Location: geo.Pt(100, 100), Deadline: 5, Required: 6},
		},
		Mechanism:      mech,
		Area:           geo.Square(1000),
		NeighborRadius: 200,
		HardBudget:     30, // funds only one ~$15-16 measurement
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(p)
	defer srv.Close()

	accepted, exhausted := 0, 0
	for i := 0; i < 4; i++ {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)
		var resp wire.SubmitResponse
		doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
			UserID:       reg.UserID,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: 1}},
			Location:     geo.Pt(0, 0),
		}, &resp)
		switch {
		case resp.Results[0].Accepted:
			accepted++
		case resp.Results[0].Reason == "budget exhausted":
			exhausted++
		default:
			t.Fatalf("unexpected result %+v", resp.Results[0])
		}
	}
	if accepted == 0 {
		t.Error("no measurement funded at all")
	}
	if exhausted == 0 {
		t.Error("budget never reported exhausted")
	}
	if paid := p.Board().TotalRewardPaid(); paid > 30+1e-9 {
		t.Errorf("paid %v > hard budget 30", paid)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()

	// No data yet.
	resp, err := srv.Client().Get(srv.URL + wire.PathEstimate + "?task=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("no-data estimate = %d", resp.StatusCode)
	}

	// Upload two measurements.
	ids := make([]int, 2)
	for i := range ids {
		var reg wire.RegisterResponse
		doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{Location: geo.Pt(0, 0)}, &reg)
		ids[i] = reg.UserID
		doJSON(t, srv, http.MethodPost, wire.PathSubmit, wire.SubmitRequest{
			UserID:       reg.UserID,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: 60 + float64(i)*2}},
			Location:     geo.Pt(0, 0),
		}, nil)
	}
	var est wire.EstimateResponse
	if code := doJSON(t, srv, http.MethodGet, wire.PathEstimate+"?task=1", nil, &est); code != 200 {
		t.Fatalf("estimate = %d", code)
	}
	if est.TaskID != 1 || est.N != 2 || est.Value != 61 {
		t.Errorf("estimate = %+v", est)
	}
	if est.MarginOfError <= 0 {
		t.Errorf("MoE = %v", est.MarginOfError)
	}

	// Bad parameters.
	for _, q := range []string{"", "?task=", "?task=abc", "?task=999"} {
		resp, err := srv.Client().Get(srv.URL + wire.PathEstimate + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			t.Errorf("estimate%s = %d, want error", q, resp.StatusCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()
	// GET on a POST-only route.
	resp, err := srv.Client().Get(srv.URL + wire.PathSubmit)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET submit = %d", resp.StatusCode)
	}
}

// recordingHandler is a slog.Handler that keeps every record it handles.
type recordingHandler struct{ records *[]slog.Record }

func (h recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h recordingHandler) Handle(_ context.Context, r slog.Record) error {
	*h.records = append(*h.records, r)
	return nil
}
func (h recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h recordingHandler) WithGroup(string) slog.Handler      { return h }

// TestAdvanceLogCountsOpenTasks pins the "round advanced" log line: with
// an auction that clears no winner (no worker has bid) nothing is
// priced, yet both tasks are open, as /v1/status reports, so the line
// says open_tasks=2 priced=0.
func TestAdvanceLogCountsOpenTasks(t *testing.T) {
	var records []slog.Record
	p, err := New(Config{
		Tasks: []task.Task{
			{ID: 1, Location: geo.Pt(100, 100), Deadline: 3, Required: 2},
			{ID: 2, Location: geo.Pt(900, 900), Deadline: 3, Required: 2},
		},
		Mechanism:      incentive.NewAuction(),
		Area:           geo.Square(1000),
		NeighborRadius: 200,
		Budget:         10,
		CostPerMeter:   0.01,
		Logger:         slog.New(recordingHandler{&records}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if round, done, err := p.Advance(); err != nil || done || round != 2 {
		t.Fatalf("Advance = %d, %v, %v; want round 2, not done", round, done, err)
	}
	srv := newServer(p)
	defer srv.Close()
	var status wire.StatusResponse
	doJSON(t, srv, http.MethodGet, wire.PathStatus, nil, &status)
	if status.OpenTasks != 2 {
		t.Fatalf("status open_tasks = %d, want 2", status.OpenTasks)
	}

	var attrs map[string]int64
	for _, r := range records {
		if r.Message != "round advanced" {
			continue
		}
		attrs = map[string]int64{}
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.Int64()
			return true
		})
	}
	want := map[string]int64{"round": 2, "open_tasks": int64(status.OpenTasks), "priced": 0}
	if !reflect.DeepEqual(attrs, want) {
		t.Errorf("round advanced attrs = %v, want %v", attrs, want)
	}
}
