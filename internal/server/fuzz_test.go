package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// FuzzJSONHandlers feeds arbitrary bodies to the JSON write endpoints
// (/v1/register, /v1/plan and /v1/submit) of a fresh platform with one
// registered worker, and asserts what the platform promises hostile
// input:
//
//   - no handler panics and none answers 5xx;
//   - a body that is not exactly one JSON value of the endpoint's request
//     type (no unknown fields, nothing after it) is answered with a 4xx;
//   - a rejected body leaves the platform's /v1/status response byte for
//     byte unchanged.
//
// The first input selects the endpoint, the second is the raw body. The
// seeds are one well-formed body per endpoint plus the edge cases the
// decoder must refuse: trailing data, overflowing numbers, unknown
// fields, and an empty body. The last seeds take each early return
// after the platform mutex is locked: a plan and a submit from an
// unknown worker, and a submit to a stale round.
func FuzzJSONHandlers(f *testing.F) {
	f.Add(uint8(0), []byte(`{"location":{"x":10,"y":20}}`))
	f.Add(uint8(1), []byte(`{"user_id":1,"location":{"x":100,"y":100},"speed":1.4,"time_budget":600,"cost_per_meter":0.002}`))
	f.Add(uint8(2), []byte(`{"user_id":1,"round":1,"measurements":[{"task_id":1,"value":3.5}],"location":{"x":100,"y":100}}`))
	f.Add(uint8(0), []byte(`{"location":{"x":10,"y":20}} {}`))
	f.Add(uint8(2), []byte(`{"user_id":1,"round":1,"measurements":[{"task_id":1,"value":3.5}]}]`))
	f.Add(uint8(1), []byte(`{"user_id":1,"location":{"x":0,"y":0},"speed":1e308,"time_budget":1e308}`))
	f.Add(uint8(1), []byte(`{"user_id":1,"speed":1e999,"time_budget":1}`))
	f.Add(uint8(2), []byte(`{"user_id":1,"round":1,"extra":true}`))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte(`{"user_id":99,"location":{"x":100,"y":100},"speed":1.4,"time_budget":600}`))
	f.Add(uint8(2), []byte(`{"user_id":99,"round":1,"measurements":[{"task_id":1,"value":3.5}]}`))
	f.Add(uint8(2), []byte(`{"user_id":1,"round":7,"measurements":[{"task_id":1,"value":3.5}]}`))

	endpoints := []struct {
		path string
		req  func() any
	}{
		{wire.PathRegister, func() any { return new(wire.RegisterRequest) }},
		{wire.PathPlan, func() any { return new(wire.PlanRequest) }},
		{wire.PathSubmit, func() any { return new(wire.SubmitRequest) }},
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		p, before := fuzzPlatform(t)
		ep := endpoints[int(which)%len(endpoints)]
		code, resp := serveFuzz(p, http.MethodPost, ep.path, jsonType, body)
		if code >= 500 {
			t.Fatalf("%s body %q -> %d %s", ep.path, body, code, resp)
		}
		if !decodesStrictly(body, ep.req()) && code/100 != 4 {
			t.Fatalf("%s accepted an undecodable body %q -> %d %s", ep.path, body, code, resp)
		}
		if code/100 != 2 {
			requireStatus(t, p, before, ep.path, body, code)
		}
	})
}

// FuzzTLVHandlers feeds arbitrary TLV bodies, with the TLV Content-Type
// and Accept headers, to /v1/plan and /v1/submit of a fresh platform with
// one registered worker, and asserts that:
//
//   - no handler panics and none answers 5xx;
//   - a rejected body leaves the platform's /v1/status response byte for
//     byte unchanged;
//   - whatever the answer, the state left behind still serves: the
//     snapshot encodes and no task's /v1/estimate answers 5xx.
//
// The TLV codec carries what JSON cannot: infinities and NaN in every
// float field.
//
// The first input selects the endpoint, the second is the raw body. The
// seeds are one well-formed body per endpoint, a plan with an infinite
// speed and a zero time budget, whose travel budget is NaN, and submits
// of a NaN and an infinite value.
func FuzzTLVHandlers(f *testing.F) {
	plan := wire.PlanRequest{UserID: 1, Location: geo.Pt(100, 100), Speed: 1.4, TimeBudget: 600, CostPerMeter: 0.002}
	f.Add(uint8(0), binary.AppendPlanRequest(nil, &plan))
	f.Add(uint8(1), binary.AppendSubmitRequest(nil, &wire.SubmitRequest{
		UserID:       1,
		Round:        1,
		Measurements: []wire.Measurement{{TaskID: 1, Value: 3.5}},
		Location:     geo.Pt(100, 100),
	}))
	plan.Speed, plan.TimeBudget = math.Inf(1), 0
	f.Add(uint8(0), binary.AppendPlanRequest(nil, &plan))
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		f.Add(uint8(1), binary.AppendSubmitRequest(nil, &wire.SubmitRequest{
			UserID:       1,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: v}},
		}))
	}

	paths := []string{wire.PathPlan, wire.PathSubmit}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		p, before := fuzzPlatform(t)
		path := paths[int(which)%len(paths)]
		code, resp := serveFuzz(p, http.MethodPost, path, binary.ContentType, body)
		if code >= 500 {
			t.Fatalf("%s body %q -> %d %q", path, body, code, resp)
		}
		if code/100 != 2 {
			requireStatus(t, p, before, path, body, code)
		}
		if err := p.WriteSnapshot(io.Discard); err != nil {
			t.Fatalf("%s body %q (%d) left a state that does not snapshot: %v", path, body, code, err)
		}
		for _, st := range p.Board().States() {
			url := fmt.Sprintf("%s?task=%d", wire.PathEstimate, st.ID)
			if code, resp := serveFuzz(p, http.MethodGet, url, jsonType, nil); code >= 500 {
				t.Fatalf("%s body %q left task %d's estimate failing: %d %s", path, body, st.ID, code, resp)
			}
		}
	})
}

const jsonType = "application/json"

// fuzzPlatform returns a fresh platform with one registered worker (ID
// 1) and its /v1/status response.
func fuzzPlatform(t *testing.T) (*Platform, []byte) {
	t.Helper()
	p := testPlatform(t)
	if code, _ := serveFuzz(p, http.MethodPost, wire.PathRegister, jsonType, []byte(`{}`)); code != http.StatusOK {
		t.Fatalf("register the fixture worker: %d", code)
	}
	_, status := serveFuzz(p, http.MethodGet, wire.PathStatus, jsonType, nil)
	return p, status
}

// requireStatus fails the test unless p's /v1/status response is still
// before, after the request to path with body was answered code.
func requireStatus(t *testing.T, p *Platform, before []byte, path string, body []byte, code int) {
	t.Helper()
	if _, after := serveFuzz(p, http.MethodGet, wire.PathStatus, jsonType, nil); !bytes.Equal(after, before) {
		t.Fatalf("%s rejected body %q (%d) but changed status:\n before %s\n after  %s",
			path, body, code, before, after)
	}
}

// serveFuzz runs one request through the platform's handler, with body
// and Accept headers of the given content type, and returns the status
// code and response body. checkUnlocked then names the request if the
// handler returned with p.mu still held.
func serveFuzz(p *Platform, method, path, contentType string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Accept", contentType)
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	checkUnlocked(p, method, path)
	return rec.Code, rec.Body.Bytes()
}

// decodesStrictly reports whether body is exactly one JSON value that
// decodes into v with no unknown fields, followed by nothing but
// whitespace.
func decodesStrictly(body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false
	}
	return dec.Decode(new(json.RawMessage)) == io.EOF
}
