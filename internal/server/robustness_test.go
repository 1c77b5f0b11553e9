package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"testing"

	"paydemand/internal/stats"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// TestMalformedBodiesNeverCrash feeds semi-random JSON-ish garbage to the
// write endpoints and checks the platform always answers with a 4xx and
// never corrupts state.
func TestMalformedBodiesNeverCrash(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	rng := stats.NewRNG(1337)
	alphabet := []byte(`{}[]",:0123456789abcdef.-+eE nulltruefalse`)
	paths := []string{wire.PathRegister, wire.PathSubmit, wire.PathAdvance}
	for trial := 0; trial < 300; trial++ {
		n := rng.IntBetween(0, 120)
		body := make([]byte, n)
		for i := range body {
			body[i] = alphabet[rng.Intn(len(alphabet))]
		}
		path := paths[rng.Intn(len(paths))]
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("trial %d: transport error: %v", trial, err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("trial %d: %s body %q -> %d", trial, path, body, resp.StatusCode)
		}
	}
	// State must still be coherent.
	if got := p.Board().TotalReceived(); got != 0 {
		t.Errorf("garbage produced %d measurements", got)
	}
}

// TestSubmitExtremeValues checks numeric edge cases in measurement values
// are stored or rejected cleanly (the JSON decoder rejects NaN/Inf
// literals by construction).
func TestSubmitExtremeValues(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{}, &reg)

	for _, raw := range []string{
		`{"user_id":1,"round":1,"measurements":[{"task_id":1,"value":1e308}],"location":{"x":0,"y":0}}`,
		`{"user_id":1,"round":1,"measurements":[{"task_id":2,"value":-1e308}],"location":{"x":0,"y":0}}`,
		`{"user_id":1,"round":1,"measurements":[{"task_id":3,"value":NaN}],"location":{"x":0,"y":0}}`,
	} {
		resp, err := srv.Client().Post(srv.URL+wire.PathSubmit, "application/json", bytes.NewReader([]byte(raw)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Errorf("body %q -> %d", raw, resp.StatusCode)
		}
	}
	// The NaN literal is invalid JSON and must have been rejected.
	if p.Board().Get(3).Received() != 0 {
		t.Error("NaN measurement was accepted")
	}
	// Huge-but-finite values are data, not protocol errors.
	if p.Board().Get(1).Received() != 1 {
		t.Error("finite extreme value rejected")
	}
}

// TestSubmitNonFiniteTLV checks that a TLV submit carrying NaN or an
// infinity, which JSON cannot express, is rejected whole: nothing is
// recorded or paid, and the task's estimate and the snapshot keep
// working.
func TestSubmitNonFiniteTLV(t *testing.T) {
	p := testPlatform(t)
	srv := newServer(p)
	defer srv.Close()

	var reg wire.RegisterResponse
	doJSON(t, srv, http.MethodPost, wire.PathRegister, wire.RegisterRequest{}, &reg)
	submit := func(v float64) int {
		code, _, _ := doTLV(t, srv, http.MethodPost, wire.PathSubmit, binary.AppendSubmitRequest(nil, &wire.SubmitRequest{
			UserID:       reg.UserID,
			Round:        1,
			Measurements: []wire.Measurement{{TaskID: 1, Value: v}},
		}))
		return code
	}
	_, before, _ := doTLV(t, srv, http.MethodGet, wire.PathStatus, nil)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if code := submit(v); code != http.StatusBadRequest {
			t.Errorf("submit value %v -> %d, want 400", v, code)
		}
	}
	if _, after, _ := doTLV(t, srv, http.MethodGet, wire.PathStatus, nil); !bytes.Equal(after, before) {
		t.Errorf("rejected submits changed status:\n before %s\n after  %s", before, after)
	}
	if code := submit(61.5); code != http.StatusOK {
		t.Fatalf("finite submit -> %d", code)
	}
	if code := doJSON(t, srv, http.MethodGet, wire.PathEstimate+"?task=1", nil, nil); code != http.StatusOK {
		t.Errorf("estimate after the rejected submits -> %d, want 200", code)
	}
	if err := p.WriteSnapshot(io.Discard); err != nil {
		t.Errorf("WriteSnapshot: %v", err)
	}
}

// TestOversizedBodyRejected checks the request size cap.
func TestOversizedBodyRejected(t *testing.T) {
	srv := newServer(testPlatform(t))
	defer srv.Close()
	big := bytes.Repeat([]byte("9"), 2<<20) // 2 MiB of digits
	resp, err := srv.Client().Post(srv.URL+wire.PathSubmit, "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body -> %d", resp.StatusCode)
	}
}
