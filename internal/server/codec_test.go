package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// doTLV sends a TLV-encoded body (or none) with TLV accept headers and
// returns the status and raw response body.
func doTLV(t *testing.T, srv *httptest.Server, method, path string, body []byte) (int, []byte, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", binary.ContentType)
	if body != nil {
		req.Header.Set("Content-Type", binary.ContentType)
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
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

// TestTLVRoundMatchesJSON pins that the TLV round response decodes to
// exactly the struct the JSON endpoint serves.
func TestTLVRoundMatchesJSON(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var viaJSON wire.RoundInfo
	if code := doJSON(t, srv, http.MethodGet, wire.PathRound, nil, &viaJSON); code != http.StatusOK {
		t.Fatalf("json round: status %d", code)
	}
	code, body, ct := doTLV(t, srv, http.MethodGet, wire.PathRound, nil)
	if code != http.StatusOK {
		t.Fatalf("tlv round: status %d", code)
	}
	if ct != binary.ContentType {
		t.Fatalf("tlv round content type %q", ct)
	}
	var viaTLV wire.RoundInfo
	if err := binary.DecodeRoundInfo(body, &viaTLV); err != nil {
		t.Fatal(err)
	}
	if viaTLV.Round != viaJSON.Round || viaTLV.Done != viaJSON.Done || len(viaTLV.Tasks) != len(viaJSON.Tasks) {
		t.Fatalf("tlv %+v != json %+v", viaTLV, viaJSON)
	}
	for i := range viaTLV.Tasks {
		if viaTLV.Tasks[i] != viaJSON.Tasks[i] {
			t.Errorf("task %d: tlv %+v != json %+v", i, viaTLV.Tasks[i], viaJSON.Tasks[i])
		}
	}
}

// fetchRound polls /v1/round in one codec, announcing known when it is
// positive, and returns the 200 response body.
func fetchRound(t *testing.T, srv *httptest.Server, known int, tlv bool) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+wire.PathRound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if known > 0 {
		req.Header.Set(wire.HeaderKnownRound, strconv.Itoa(known))
	}
	if tlv {
		req.Header.Set("Accept", binary.ContentType)
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	return data
}

// fillRound has two fresh workers measure each of testPlatform's three
// tasks (Required 2) in round 1, so every task fills but the campaign
// goes on until the next advance.
func fillRound(t *testing.T, srv *httptest.Server) {
	t.Helper()
	for w := 0; w < 2; w++ {
		var reg wire.RegisterResponse
		if code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
			wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg); code != http.StatusOK {
			t.Fatalf("register: status %d", code)
		}
		sub := wire.SubmitRequest{UserID: reg.UserID, Round: 1, Location: geo.Pt(500, 500)}
		for id := task.ID(1); id <= 3; id++ {
			sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: id, Value: 50})
		}
		var resp wire.SubmitResponse
		if code := doJSON(t, srv, http.MethodPost, wire.PathSubmit, sub, &resp); code != http.StatusOK {
			t.Fatalf("submit: status %d", code)
		}
		for _, res := range resp.Results {
			if !res.Accepted {
				t.Fatalf("task %d rejected: %s", res.TaskID, res.Reason)
			}
		}
	}
}

// TestRoundFastJSONDecodeFires pins that the platform's JSON round bodies
// take the client's reflection-free decode path and that it agrees with
// the TLV decode: a change to wire.RoundInfo, TaskInfo, a json tag or the
// server's writer fails here instead of silently falling back to
// encoding/json. It covers a full round, a known-round Unchanged reply,
// a round whose tasks have all filled, and a done campaign.
func TestRoundFastJSONDecodeFires(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	check := func(name string, known int) wire.RoundInfo {
		t.Helper()
		body := fetchRound(t, srv, known, false)
		var viaJSON, viaTLV wire.RoundInfo
		if !wire.DecodeRoundInfoJSON(body, &viaJSON) {
			t.Fatalf("%s: fast path rejected the platform body %q", name, body)
		}
		if err := binary.DecodeRoundInfo(fetchRound(t, srv, known, true), &viaTLV); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaJSON, viaTLV) {
			t.Fatalf("%s: fast JSON %+v != TLV %+v", name, viaJSON, viaTLV)
		}
		return viaJSON
	}

	if full := check("full round", 0); len(full.Tasks) == 0 || full.Done {
		t.Fatalf("full round: %+v", full)
	}
	if hit := check("unchanged", 1); !hit.Unchanged {
		t.Fatalf("known round: %+v, want unchanged", hit)
	}
	fillRound(t, srv)
	if empty := check("empty round", 0); empty.Tasks != nil || empty.Done {
		t.Fatalf("filled round: %+v, want no tasks and not done", empty)
	}
	for i := 0; i < 10 && !p.Round().Done; i++ {
		if _, _, err := p.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if end := check("done", 0); !end.Done {
		t.Fatalf("campaign not done after 10 advances: %+v", end)
	}
}

// TestDecodeRoundFastJSONNoAllocs pins the client's JSON poll decode to
// zero allocations on the platform's real body once the message's task
// list has grown.
func TestDecodeRoundFastJSONNoAllocs(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()
	body := fetchRound(t, srv, 0, false)
	var m wire.RoundInfo
	if !wire.DecodeRoundInfoJSON(body, &m) {
		t.Fatalf("fast path rejected %q", body)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m = wire.RoundInfo{Tasks: m.Tasks[:0]}
		if !wire.DecodeRoundInfoJSON(body, &m) {
			t.Fatal("fast path rejected the platform body")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeRoundInfoJSON allocs = %v, want 0", allocs)
	}
}

// TestEmptyRoundAfterPooledPoll pins the recycled task list against the
// bytes the platform has always served: after a poll that returned tasks
// to the pool, a round whose tasks have all filled (but which is not
// done) is still "tasks":null in JSON, not the recycled empty list's
// "tasks":[], and the TLV body of a nil list.
func TestEmptyRoundAfterPooledPoll(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	for _, tlv := range []bool{false, true} {
		if body := fetchRound(t, srv, 0, tlv); bytes.Contains(body, []byte(`"tasks":null`)) {
			t.Fatalf("tlv=%v: first poll has no tasks: %q", tlv, body)
		}
	}
	fillRound(t, srv)
	if got, want := string(fetchRound(t, srv, 0, false)), `{"round":1,"tasks":null,"done":false}`+"\n"; got != want {
		t.Errorf("json body %q, want %q", got, want)
	}
	want := binary.AppendRoundInfo(nil, &wire.RoundInfo{Round: 1})
	if got := fetchRound(t, srv, 0, true); !bytes.Equal(got, want) {
		t.Errorf("tlv body %x, want %x", got, want)
	}
	if info := p.Round(); info.Tasks != nil {
		t.Errorf("Platform.Round() tasks %+v, want nil", info.Tasks)
	}
}

// TestKnownRoundShortCircuit pins the steady-state polling optimization
// in both codecs: a poller that already holds the current round gets a
// tiny Unchanged response with no task list; a stale or absent known
// round gets the full response; a done campaign never short-circuits.
func TestKnownRoundShortCircuit(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	fetch := func(known int, tlv bool) wire.RoundInfo {
		t.Helper()
		data := fetchRound(t, srv, known, tlv)
		var info wire.RoundInfo
		if tlv {
			if err := binary.DecodeRoundInfo(data, &info); err != nil {
				t.Fatal(err)
			}
		} else if err := jsonUnmarshal(data, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}

	for _, tlv := range []bool{false, true} {
		full := fetch(0, tlv)
		if full.Unchanged || len(full.Tasks) == 0 {
			t.Fatalf("tlv=%v: full fetch: %+v", tlv, full)
		}
		hit := fetch(full.Round, tlv)
		if !hit.Unchanged || len(hit.Tasks) != 0 || hit.Round != full.Round {
			t.Errorf("tlv=%v: known=current: got %+v, want unchanged", tlv, hit)
		}
		stale := fetch(full.Round+7, tlv)
		if stale.Unchanged || len(stale.Tasks) == 0 {
			t.Errorf("tlv=%v: known=stale: got %+v, want full response", tlv, stale)
		}
	}

	// The query-parameter spelling works too.
	resp, err := srv.Client().Get(srv.URL + wire.PathRound + "?known=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var info wire.RoundInfo
	if err := jsonUnmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Unchanged {
		t.Errorf("?known=1: got %+v, want unchanged", info)
	}

	// Drive the campaign to done; the short-circuit must stop firing so
	// pollers observe Done.
	for i := 0; i < 10; i++ {
		if _, done, err := p.Advance(); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
	}
	end := fetch(0, false)
	if !end.Done {
		t.Fatal("campaign not done after 10 advances")
	}
	for _, tlv := range []bool{false, true} {
		atEnd := fetch(end.Round, tlv)
		if atEnd.Unchanged || !atEnd.Done {
			t.Errorf("tlv=%v: done campaign short-circuited: %+v", tlv, atEnd)
		}
	}
}

// TestTLVPlanAndSubmit drives register → plan → submit entirely over TLV
// bodies and responses.
func TestTLVPlanAndSubmit(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}

	planReq := wire.PlanRequest{
		UserID:       reg.UserID,
		Location:     geo.Pt(500, 500),
		Speed:        2,
		TimeBudget:   600,
		CostPerMeter: 0.002,
	}
	code, body, ct := doTLV(t, srv, http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &planReq))
	if code != http.StatusOK {
		t.Fatalf("tlv plan: status %d: %s", code, body)
	}
	if ct != binary.ContentType {
		t.Fatalf("tlv plan content type %q", ct)
	}
	var plan wire.PlanResponse
	if err := binary.DecodePlanResponse(body, &plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Order) == 0 {
		t.Fatal("empty plan from the middle of the board")
	}

	sub := wire.SubmitRequest{UserID: reg.UserID, Round: plan.Round, Location: geo.Pt(500, 500)}
	for _, id := range plan.Order {
		sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: id, Value: 50})
	}
	code, body, _ = doTLV(t, srv, http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &sub))
	if code != http.StatusOK {
		t.Fatalf("tlv submit: status %d: %s", code, body)
	}
	var subResp wire.SubmitResponse
	if err := binary.DecodeSubmitResponse(body, &subResp); err != nil {
		t.Fatal(err)
	}
	if len(subResp.Results) != len(plan.Order) {
		t.Fatalf("submit results %d, want %d", len(subResp.Results), len(plan.Order))
	}
	for _, res := range subResp.Results {
		if !res.Accepted {
			t.Errorf("task %d rejected: %s", res.TaskID, res.Reason)
		}
	}
	if subResp.TotalPaid <= 0 {
		t.Errorf("total paid %v, want > 0", subResp.TotalPaid)
	}
}

// TestTLVBadBodies pins graceful 400s for malformed TLV requests and
// JSON error bodies (errors are always JSON, the debugging surface).
func TestTLVBadBodies(t *testing.T) {
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	defer srv.Close()

	for _, path := range []string{wire.PathPlan, wire.PathSubmit} {
		code, body, ct := doTLV(t, srv, http.MethodPost, path, []byte{250, 99, 1, 2, 3})
		if code != http.StatusBadRequest {
			t.Errorf("%s: malformed TLV: status %d, want 400", path, code)
		}
		if ct != "application/json" {
			t.Errorf("%s: error content type %q, want JSON", path, ct)
		}
		var apiErr wire.Error
		if err := jsonUnmarshal(body, &apiErr); err != nil || apiErr.Message == "" {
			t.Errorf("%s: error body %q not a JSON error", path, body)
		}
	}
}

// jsonUnmarshal is a tiny indirection so codec tests read symmetrically.
func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// discardWriter is a ResponseWriter that keeps one header map across
// responses and drops the body, so an allocation count covers the
// handler alone.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestTLVHandlerAllocs pins the allocations of one TLV poll, plan and
// submit served by the handler alone. Decoded requests and encoded
// responses stay on the handler's stack (see readMessage and
// writeMessage), one allocation fewer per message than when the seam
// passed them to its codec funcs; what remains is the response's
// Content-Type header value, the bounded body reader, the plan's
// candidates and plan, and the log lines' boxed attributes.
func TestTLVHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := testPlatform(t)
	srv := httptest.NewServer(p)
	var reg wire.RegisterResponse
	if code := doJSON(t, srv, http.MethodPost, wire.PathRegister,
		wire.RegisterRequest{Location: geo.Pt(500, 500)}, &reg); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	srv.Close()
	planReq := planRequest(reg.UserID)
	// A submission with no measurements changes nothing, so every run
	// takes the same path.
	subReq := wire.SubmitRequest{UserID: reg.UserID, Round: 1, Location: geo.Pt(500, 500)}

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   []byte
		serve  func(http.ResponseWriter, *http.Request)
		allocs float64
	}{
		{"poll", http.MethodGet, wire.PathRound, nil, p.handleRound, 1},
		{"plan", http.MethodPost, wire.PathPlan, binary.AppendPlanRequest(nil, &planReq), p.handlePlan, 8},
		{"submit", http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &subReq), p.handleSubmit, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.NewReader(tc.body)
			req := httptest.NewRequest(tc.method, tc.path, body)
			req.Header.Set("Accept", binary.ContentType)
			req.Header.Set("Content-Type", binary.ContentType)
			w := &discardWriter{header: http.Header{}}
			run := func() {
				body.Reset(tc.body)
				tc.serve(w, req)
			}
			run()
			if w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
			if got := testing.AllocsPerRun(100, run); got != tc.allocs {
				t.Errorf("%s: %v allocs per request, want %v", tc.name, got, tc.allocs)
			}
		})
	}
}
