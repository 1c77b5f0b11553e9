package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadgenSmoke self-hosts a platform and runs a short closed loop in
// each codec: 20 rounds must complete with zero protocol errors and real
// plan/submit traffic, and the JSON report must parse. This is the `make
// loadgen-smoke` CI gate. The tasks are spread thin (200 in a 10 km
// square, against a 1.2 km walk per round), so workers keep finding
// tasks only by walking their plans: at least half the plans must end in
// a submit. Workers that stayed where they registered submitted on about
// a quarter of them.
func TestLoadgenSmoke(t *testing.T) {
	for _, codec := range []string{"json", "tlv"} {
		t.Run("codec="+codec, func(t *testing.T) {
			outPath := filepath.Join(t.TempDir(), "report.json")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var buf bytes.Buffer
			err := run(ctx, []string{
				"-workers", "8",
				"-tasks", "200",
				"-area", "10000",
				"-codec", codec,
				"-duration", "1ms",
				"-min-rounds", "20",
				"-advance-after", "50ms",
				"-out", outPath,
			}, &buf)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, buf.String())
			}
			data, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("report not JSON: %v\n%s", err, data)
			}
			if rep.Rounds < 20 {
				t.Errorf("rounds = %d, want >= 20", rep.Rounds)
			}
			if rep.Errors != 0 {
				t.Errorf("protocol errors = %d", rep.Errors)
			}
			if rep.Plans == 0 || 2*rep.Submits < rep.Plans {
				t.Errorf("workers ran out of tasks: %d submits for %d plans, want at least half", rep.Submits, rep.Plans)
			}
			if rep.Latency["poll"].Count == 0 {
				t.Error("empty poll histogram")
			}
			if rep.Codec != codec {
				t.Errorf("report codec %q", rep.Codec)
			}
		})
	}
}

// TestLoadgenFlagValidation pins the error paths.
func TestLoadgenFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-workers", "0"}, &buf); err == nil {
		t.Error("workers=0 accepted")
	}
	if err := run(context.Background(), []string{"-codec", "msgpack"}, &buf); err == nil {
		t.Error("unknown codec accepted")
	}
}

// TestHistBuckets pins the bucket math: indexes are monotone, contiguous
// at the exact/log boundary, and invert within sub-bucket resolution.
func TestHistBuckets(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 255, 1000, 1 << 20, 1 << 40} {
		i := bucketOf(v)
		if i <= last && v > 0 {
			t.Errorf("bucketOf(%d) = %d, not above previous %d", v, i, last)
		}
		last = i
		low := bucketLow(i)
		if low > v {
			t.Errorf("bucketLow(bucketOf(%d)) = %d > value", v, low)
		}
		if v >= 64 && float64(v-low)/float64(v) > 1.0/64 {
			t.Errorf("bucket error for %d: low %d", v, low)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.observe(v)
	}
	if p := h.quantile(0.5); p < 450 || p > 550 {
		t.Errorf("p50 of 1..1000 = %d", p)
	}
	if p := h.quantile(0.99); p < 940 || p > 1000 {
		t.Errorf("p99 of 1..1000 = %d", p)
	}
	if h.max.Load() != 1000 {
		t.Errorf("max = %d", h.max.Load())
	}
	if m := h.mean(); m < 495 || m > 506 {
		t.Errorf("mean = %v", m)
	}
}
