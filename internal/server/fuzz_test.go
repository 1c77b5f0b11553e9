package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"paydemand/internal/wire"
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
// fields, and an empty body.
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

	endpoints := []struct {
		path string
		req  func() any
	}{
		{wire.PathRegister, func() any { return new(wire.RegisterRequest) }},
		{wire.PathPlan, func() any { return new(wire.PlanRequest) }},
		{wire.PathSubmit, func() any { return new(wire.SubmitRequest) }},
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		p := testPlatform(t)
		if code, _ := serveFuzz(p, http.MethodPost, wire.PathRegister, []byte(`{}`)); code != http.StatusOK {
			t.Fatalf("register the fixture worker: %d", code)
		}
		_, before := serveFuzz(p, http.MethodGet, wire.PathStatus, nil)

		ep := endpoints[int(which)%len(endpoints)]
		code, resp := serveFuzz(p, http.MethodPost, ep.path, body)
		if code >= 500 {
			t.Fatalf("%s body %q -> %d %s", ep.path, body, code, resp)
		}
		if !decodesStrictly(body, ep.req()) && code/100 != 4 {
			t.Fatalf("%s accepted an undecodable body %q -> %d %s", ep.path, body, code, resp)
		}
		if code/100 != 2 {
			if _, after := serveFuzz(p, http.MethodGet, wire.PathStatus, nil); !bytes.Equal(after, before) {
				t.Fatalf("%s rejected body %q (%d) but changed status:\n before %s\n after  %s",
					ep.path, body, code, before, after)
			}
		}
	})
}

// serveFuzz runs one JSON request through the platform's handler and
// returns the status code and response body.
func serveFuzz(p *Platform, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
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
