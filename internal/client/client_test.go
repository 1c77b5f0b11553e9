package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/selection"
	"paydemand/internal/server"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// startPlatform spins up a test platform over httptest.
func startPlatform(t *testing.T, tasks []task.Task) (*server.Platform, *httptest.Server) {
	t.Helper()
	total := 0
	for _, tk := range tasks {
		total += tk.Required
	}
	scheme, err := incentive.SchemeFromBudget(1000, total, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := server.New(server.Config{
		Tasks:          tasks,
		Mechanism:      mech,
		Area:           geo.Square(3000),
		NeighborRadius: 500,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func defaultTasks() []task.Task {
	return []task.Task{
		{ID: 1, Location: geo.Pt(200, 200), Deadline: 4, Required: 2},
		{ID: 2, Location: geo.Pt(400, 300), Deadline: 4, Required: 2},
		{ID: 3, Location: geo.Pt(2800, 2800), Deadline: 4, Required: 1},
	}
}

func TestClientRoundTrip(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx := context.Background()

	id, err := c.Register(ctx, geo.Pt(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("id = %d", id)
	}

	round, err := c.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if round.Round != 1 || len(round.Tasks) != 3 {
		t.Fatalf("round = %+v", round)
	}

	resp, err := c.Submit(ctx, wire.SubmitRequest{
		UserID:       id,
		Round:        1,
		Measurements: []wire.Measurement{{TaskID: 1, Value: 61.2}},
		Location:     geo.Pt(200, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Accepted {
		t.Fatalf("submit rejected: %+v", resp.Results[0])
	}

	status, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.TotalMeasurements != 1 || status.Workers != 1 {
		t.Errorf("status = %+v", status)
	}

	adv, err := c.Advance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Round != 2 || adv.Done {
		t.Errorf("advance = %+v", adv)
	}
}

func TestClientEstimate(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx := context.Background()
	id, err := c.Register(ctx, geo.Pt(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, wire.SubmitRequest{
		UserID:       id,
		Round:        1,
		Measurements: []wire.Measurement{{TaskID: 1, Value: 42}},
		Location:     geo.Pt(0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	est, err := c.Estimate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.TaskID != 1 || est.Value != 42 || est.N != 1 {
		t.Errorf("estimate = %+v", est)
	}
	// Unmeasured task is a 404 APIError.
	var apiErr *APIError
	if _, err := c.Estimate(ctx, 2); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("estimate of empty task err = %v", err)
	}
}

func TestClientDecodeFailure(t *testing.T) {
	// A server speaking garbage must produce a decode error, not a panic.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("not json"))
	}))
	defer srv.Close()
	c := New(srv.URL, srv.Client())
	if _, err := c.Round(context.Background()); err == nil {
		t.Error("garbage response decoded successfully")
	}
}

func TestClientNonJSONErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "plain text error", http.StatusTeapot)
	}))
	defer srv.Close()
	c := New(srv.URL, srv.Client())
	var apiErr *APIError
	if _, err := c.Round(context.Background()); !errors.As(err, &apiErr) {
		t.Fatalf("err = %v", err)
	} else if apiErr.StatusCode != http.StatusTeapot {
		t.Errorf("status = %d", apiErr.StatusCode)
	}
}

func TestClientAPIError(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	_, err := c.Submit(context.Background(), wire.SubmitRequest{UserID: 77, Round: 1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", apiErr.StatusCode)
	}
	if apiErr.Error() == "" {
		t.Error("empty error string")
	}
}

func TestClientConnectionRefused(t *testing.T) {
	c := New("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if _, err := c.Round(context.Background()); err == nil {
		t.Error("dead endpoint succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Round(ctx); err == nil {
		t.Error("canceled context succeeded")
	}
}

func TestWorkerStepSelectsAndUploads(t *testing.T) {
	platform, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx := context.Background()

	w, err := NewWorker(ctx, c, WorkerConfig{
		Start:  geo.Pt(250, 250),
		Sensor: func(_ int64, loc geo.Point) float64 { return loc.X },
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("campaign reported done after one step")
	}
	// Nearby tasks 1 and 2 are profitable; the distant task 3 is not.
	if got := platform.Board().Get(1).Received() + platform.Board().Get(2).Received(); got != 2 {
		t.Errorf("nearby tasks received %d measurements, want 2", got)
	}
	if platform.Board().Get(3).Received() != 0 {
		t.Error("worker took an unprofitable far task")
	}
	if w.Profit() <= 0 {
		t.Errorf("worker profit = %v", w.Profit())
	}
	// Sensor values recorded.
	if vals := platform.Values(1); len(vals) != 1 || vals[0] != 200 {
		t.Errorf("task 1 values = %v", vals)
	}
}

func TestWorkerRunFullCampaign(t *testing.T) {
	platform, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const nWorkers = 4
	workers := make([]*Worker, nWorkers)
	for i := range workers {
		w, err := NewWorker(ctx, c, WorkerConfig{
			Start:        geo.Pt(float64(200+i*100), float64(200+i*100)),
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}

	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				errs <- err
			}
		}()
	}

	// Drive rounds: advance whenever all workers have had a chance. Simple
	// fixed cadence is fine for the test.
	go func() {
		for {
			time.Sleep(30 * time.Millisecond)
			adv, err := c.Advance(ctx)
			if err != nil || adv.Done {
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	status, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !status.Done {
		t.Error("campaign not done")
	}
	// The nearby tasks must have been fully measured.
	if platform.Board().Get(1).Received() != 2 || platform.Board().Get(2).Received() != 2 {
		t.Errorf("tasks under-measured: %d, %d",
			platform.Board().Get(1).Received(), platform.Board().Get(2).Received())
	}
}

func TestWorkerSkipsDoneTasks(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx := context.Background()

	w, err := NewWorker(ctx, c, WorkerConfig{Start: geo.Pt(250, 250), PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx); err != nil {
		t.Fatal(err)
	}
	profitAfterFirst := w.Profit()
	if _, err := c.Advance(ctx); err != nil {
		t.Fatal(err)
	}
	// Round 2: worker already did the nearby profitable tasks; far task 3
	// stays unprofitable, so the plan is empty and profit unchanged.
	if _, err := w.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if w.Profit() != profitAfterFirst {
		t.Errorf("profit changed on empty round: %v -> %v", profitAfterFirst, w.Profit())
	}
}

// flakyProxy forwards to the inner handler after failing the first n
// requests with 500s.
type flakyProxy struct {
	mu        sync.Mutex
	failsLeft int
	inner     http.Handler
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	fail := f.failsLeft > 0
	if fail {
		f.failsLeft--
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestWorkerRetriesTransientFailures(t *testing.T) {
	platform, _ := startPlatform(t, defaultTasks())
	proxy := &flakyProxy{inner: platform}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	c := New(srv.URL, srv.Client())
	ctx := context.Background()
	w, err := NewWorker(ctx, c, WorkerConfig{
		Start:        geo.Pt(250, 250),
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two consecutive 500s on the round fetch must be absorbed.
	proxy.mu.Lock()
	proxy.failsLeft = 2
	proxy.mu.Unlock()
	if _, err := w.Step(ctx); err != nil {
		t.Fatalf("step with transient failures: %v", err)
	}
	if platform.Board().TotalReceived() == 0 {
		t.Error("no measurements after retried step")
	}
}

func TestWorkerGivesUpAfterMaxRetries(t *testing.T) {
	platform, _ := startPlatform(t, defaultTasks())
	proxy := &flakyProxy{inner: platform, failsLeft: 1000}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	c := New(srv.URL, srv.Client())
	ctx := context.Background()
	// Registration happens before the flood of failures matters, so point
	// a working client at the platform for registration, then flip.
	proxy.mu.Lock()
	proxy.failsLeft = 0
	proxy.mu.Unlock()
	w, err := NewWorker(ctx, c, WorkerConfig{
		Start:        geo.Pt(250, 250),
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy.mu.Lock()
	proxy.failsLeft = 1000
	proxy.mu.Unlock()
	if _, err := w.Step(ctx); err == nil {
		t.Error("persistent failures did not surface")
	}
}

// TestWorkerPlatformPlanLaterRound advances the platform between a
// worker's poll and its /v1/plan call: the worker submits for the plan's
// round, finds the planned tasks in the round it polled, and treats the
// later round as its turn instead of acting in it twice.
func TestWorkerPlatformPlanLaterRound(t *testing.T) {
	platform, _ := startPlatform(t, defaultTasks())
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathPlan {
			once.Do(func() {
				if _, _, err := platform.Advance(); err != nil {
					t.Error(err)
				}
			})
		}
		platform.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := New(srv.URL, srv.Client())
	ctx := context.Background()
	w, err := NewWorker(ctx, c, WorkerConfig{Start: geo.Pt(250, 250), PlatformPlans: true, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx); err != nil {
		t.Fatal(err)
	}
	received := platform.Board().TotalReceived()
	if received == 0 || w.Profit() <= 0 {
		t.Fatalf("plan for round 2 was not submitted: %d measurements, profit %v", received, w.Profit())
	}
	if !w.Location().Equal(geo.Pt(200, 200)) && !w.Location().Equal(geo.Pt(400, 300)) {
		t.Errorf("worker stands at %v, want the last planned task", w.Location())
	}

	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := w.Step(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("second step in round 2: %v, want to wait for round 3", err)
	}
	if got := platform.Board().TotalReceived(); got != received {
		t.Errorf("worker acted twice in round 2: %d -> %d measurements", received, got)
	}
}

func TestWorkerCustomAlgorithm(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client())
	ctx := context.Background()
	w, err := NewWorker(ctx, c, WorkerConfig{
		Start:     geo.Pt(250, 250),
		Algorithm: &selection.Greedy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if w.ID() != 1 {
		t.Errorf("ID = %d", w.ID())
	}
	if w.Location().Equal(geo.Pt(250, 250)) {
		t.Error("worker did not move")
	}
}

func TestClientTLVCodec(t *testing.T) {
	// The same conversation over both codecs must observe the same
	// platform state.
	_, srv := startPlatform(t, defaultTasks())
	ctx := context.Background()
	jsonC := New(srv.URL, srv.Client())
	tlvC := New(srv.URL, srv.Client(), WithCodec(CodecTLV))

	viaJSON, err := jsonC.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	viaTLV, err := tlvC.Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaJSON, viaTLV) {
		t.Fatalf("round: json %+v != tlv %+v", viaJSON, viaTLV)
	}

	id, err := tlvC.Register(ctx, geo.Pt(250, 250))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tlvC.Plan(ctx, wire.PlanRequest{
		UserID:       id,
		Location:     geo.Pt(250, 250),
		Speed:        2,
		TimeBudget:   600,
		CostPerMeter: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) == 0 {
		t.Fatal("empty TLV plan")
	}
	sub := wire.SubmitRequest{UserID: id, Round: plan.Round, Location: geo.Pt(250, 250)}
	for _, taskID := range plan.Order {
		sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: taskID, Value: 55})
	}
	resp, err := tlvC.Submit(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(plan.Order) || resp.TotalPaid <= 0 {
		t.Fatalf("TLV submit: %+v", resp)
	}

	// Endpoints without a binary codec answer JSON to a TLV client.
	status, err := tlvC.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.TotalMeasurements != len(plan.Order) || status.Workers != 1 {
		t.Errorf("TLV-mode status: %+v", status)
	}
	if _, err := tlvC.Estimate(ctx, plan.Order[0]); err != nil {
		t.Errorf("TLV-mode estimate: %v", err)
	}
}

func TestClientRoundKnownShortCircuit(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	ctx := context.Background()
	for _, codec := range []Codec{CodecJSON, CodecTLV} {
		c := New(srv.URL, srv.Client(), WithCodec(codec))
		full, err := c.Round(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if full.Unchanged || len(full.Tasks) == 0 {
			t.Fatalf("codec %d: full fetch: %+v", codec, full)
		}
		var hit wire.RoundInfo
		if err := c.RoundInto(ctx, full.Round, &hit); err != nil {
			t.Fatal(err)
		}
		if !hit.Unchanged || len(hit.Tasks) != 0 || hit.Round != full.Round {
			t.Errorf("codec %d: known=current: %+v, want unchanged", codec, hit)
		}
	}
}

func TestClientRoundIntoReusesCapacity(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	ctx := context.Background()
	for _, codec := range []Codec{CodecJSON, CodecTLV} {
		c := New(srv.URL, srv.Client(), WithCodec(codec))
		var info wire.RoundInfo
		if err := c.RoundInto(ctx, 0, &info); err != nil {
			t.Fatal(err)
		}
		first := cap(info.Tasks)
		if first == 0 {
			t.Fatalf("codec %d: no tasks decoded", codec)
		}
		for i := 0; i < 3; i++ {
			if err := c.RoundInto(ctx, 0, &info); err != nil {
				t.Fatal(err)
			}
		}
		if cap(info.Tasks) != first {
			t.Errorf("codec %d: tasks capacity %d -> %d; repolls should reuse", codec, first, cap(info.Tasks))
		}
	}
}

// TestClientRoundJSONFallback pins the fallback behind the client's
// reflection-free round decode: a body that is not the platform's
// canonical form (here re-indented by a proxy) decodes through
// encoding/json to the same message, and a body encoding/json rejects
// still fails with encoding/json's error.
func TestClientRoundJSONFallback(t *testing.T) {
	_, srv := startPlatform(t, defaultTasks())
	ctx := context.Background()
	want, err := New(srv.URL, srv.Client()).Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := srv.Client().Get(srv.URL + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, body, "", "  "); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		_, _ = w.Write(pretty.Bytes())
	}))
	defer proxy.Close()
	got, err := New(proxy.URL, proxy.Client()).Round(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("via pretty-printing proxy %+v, direct %+v", got, want)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"round":1.5,"tasks":null,"done":false}` + "\n"))
	}))
	defer bad.Close()
	_, err = New(bad.URL, bad.Client()).Round(ctx)
	if err == nil || !strings.Contains(err.Error(), "cannot unmarshal number 1.5") {
		t.Errorf("fractional round: err = %v, want encoding/json's unmarshal error", err)
	}
}

// TestClientRoundIntoClearsStaleFields polls into one reused message in
// both codecs: a known-round hit sets Unchanged, and after an advance the
// re-poll must read the new round with Unchanged cleared and the task
// list back, not the previous response's leftovers.
func TestClientRoundIntoClearsStaleFields(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecTLV} {
		p, srv := startPlatform(t, defaultTasks())
		ctx := context.Background()
		c := New(srv.URL, srv.Client(), WithCodec(codec))
		var info wire.RoundInfo
		if err := c.RoundInto(ctx, 1, &info); err != nil {
			t.Fatal(err)
		}
		if !info.Unchanged || info.Round != 1 {
			t.Fatalf("codec %d: known-round poll: %+v, want unchanged round 1", codec, info)
		}
		if _, _, err := p.Advance(); err != nil {
			t.Fatal(err)
		}
		if err := c.RoundInto(ctx, 1, &info); err != nil {
			t.Fatal(err)
		}
		if info.Unchanged || info.Round != 2 || len(info.Tasks) == 0 {
			t.Errorf("codec %d: re-poll after advance: %+v, want round 2 with tasks", codec, info)
		}
	}
}

func TestWorkerTLVFullCampaign(t *testing.T) {
	// The whole worker loop — register, poll with known round, plan
	// locally, submit — over the binary codec.
	platform, srv := startPlatform(t, defaultTasks())
	c := New(srv.URL, srv.Client(), WithCodec(CodecTLV))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := NewWorker(ctx, c, WorkerConfig{
		Start:        geo.Pt(250, 250),
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			time.Sleep(20 * time.Millisecond)
			adv, err := c.Advance(ctx)
			if err != nil || adv.Done {
				return
			}
		}
	}()
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if platform.Board().Get(1).Received() == 0 {
		t.Error("no measurements over TLV")
	}
	if w.Profit() <= 0 {
		t.Errorf("profit = %v", w.Profit())
	}
}

func TestClientDefaultTransportTuned(t *testing.T) {
	c := New("http://localhost:0", nil, WithMaxIdleConnsPerHost(1234))
	tr, ok := c.http.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default transport is %T", c.http.Transport)
	}
	if tr.MaxIdleConnsPerHost != 1234 || tr.MaxIdleConns != 1234 {
		t.Errorf("idle conns = %d/%d, want 1234", tr.MaxIdleConnsPerHost, tr.MaxIdleConns)
	}
	if c.http.Timeout == 0 {
		t.Error("default client has no timeout")
	}
	// An explicit client is used as-is.
	own := &http.Client{}
	if got := New("http://localhost:0", own, WithMaxIdleConnsPerHost(9)); got.http != own {
		t.Error("explicit http.Client replaced")
	}
}

func TestParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{"json": CodecJSON, "tlv": CodecTLV} {
		if got, err := ParseCodec(name); err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "JSON", "binary"} {
		if _, err := ParseCodec(bad); err == nil {
			t.Errorf("ParseCodec(%q) accepted", bad)
		}
	}
}
