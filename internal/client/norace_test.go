//go:build !race

package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"testing"

	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// roundTripFunc serves a client's requests without a network.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// maxSubmitBytes bounds what one TLV submit allocates (amd64, Go 1.24:
// 2,304 bytes, the request, the canned response and the decoded
// results). A transport buffer the client does not return to the pool
// costs a fresh 4 KiB buffer per call, so either dropped release fails.
const maxSubmitBytes = 3 << 10

// TestPostRecyclesBuffers pins the client's two pooled transport
// buffers: post borrows one to encode the request body and do borrows
// one to read the response, and each defers its return. The race
// detector's pool drops a quarter of its Puts on purpose, so the pin
// runs without it.
func TestPostRecyclesBuffers(t *testing.T) {
	resp := binary.AppendSubmitResponse(nil, &wire.SubmitResponse{
		Results:   []wire.SubmitResult{{TaskID: 1, Accepted: true, Reward: 2}},
		TotalPaid: 2,
	})
	c := New("http://platform", &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return nil, err
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {binary.ContentType}},
			Body:       io.NopCloser(bytes.NewReader(resp)),
		}, nil
	})}, WithCodec(CodecTLV))
	req := wire.SubmitRequest{UserID: 1, Round: 1, Measurements: []wire.Measurement{{TaskID: 1, Value: 55}}}
	submit := func() {
		if _, err := c.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 100
	submit()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		submit()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > maxSubmitBytes {
		t.Errorf("a TLV submit allocated %d bytes, want at most %d", per, maxSubmitBytes)
	}
}
