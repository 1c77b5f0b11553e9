package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/server"
	"paydemand/internal/task"
)

// TestLoadgenSmoke self-hosts a platform and runs a short closed loop in
// each codec on two boards. Every run must complete its rounds with zero
// protocol errors, a parseable JSON report and accepted submits in every
// quarter of its rounds, the last included.
//
// The thin board spreads 200 tasks over a 10 km square, against a 1.2 km
// walk per round, so workers keep finding tasks only by walking their
// plans: at least half the plans must end in a submit. Workers that
// stayed where they registered submitted on about a quarter of them.
//
// The small board is `make loadgen-smoke`'s: 25 workers and 10 tasks in
// a 2 km square. A worker contributes to each task once, so the fleet
// runs out of work within about six rounds, and the run must start fresh
// campaigns to keep submitting; without them it made 114 submits in
// about 7,500 plans over 300 rounds. Each campaign ends in rounds where
// few workers still find a task, so about 36% of its plans are empty,
// and more under the race detector's slowdown: it has no share bound.
func TestLoadgenSmoke(t *testing.T) {
	boards := []struct {
		name        string
		args        []string
		rounds      int64
		campaigns   int     // at least
		submitShare float64 // of the plans, at least
	}{
		{"thin", []string{"-workers", "8", "-tasks", "200", "-area", "10000"}, 20, 1, 0.5},
		{"small", []string{"-workers", "25", "-tasks", "10"}, 40, 2, 0},
	}
	for _, codec := range []string{"json", "tlv"} {
		t.Run("codec="+codec, func(t *testing.T) {
			for _, board := range boards {
				t.Run(board.name, func(t *testing.T) {
					outPath := filepath.Join(t.TempDir(), "report.json")
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					var buf bytes.Buffer
					err := run(ctx, append([]string{
						"-codec", codec,
						"-duration", "1ms",
						"-min-rounds", strconv.FormatInt(board.rounds, 10),
						"-advance-after", "50ms",
						"-out", outPath,
					}, board.args...), &buf)
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
					if rep.Rounds < board.rounds {
						t.Errorf("rounds = %d, want >= %d", rep.Rounds, board.rounds)
					}
					if rep.Errors != 0 {
						t.Errorf("protocol errors = %d", rep.Errors)
					}
					if rep.Campaigns < board.campaigns {
						t.Errorf("campaigns = %d, want >= %d", rep.Campaigns, board.campaigns)
					}
					for q, n := range rep.SubmitsByQuarter {
						if n == 0 {
							t.Errorf("no submits in quarter %d of the rounds: %v", q+1, rep.SubmitsByQuarter)
						}
					}
					if rep.Plans == 0 || float64(rep.Submits) < board.submitShare*float64(rep.Plans) {
						t.Errorf("workers ran out of tasks: %d submits for %d plans, want at least %v of them", rep.Submits, rep.Plans, board.submitShare)
					}
					if want := float64(rep.Plans-rep.Submits-rep.Conflicts) / float64(rep.Plans); rep.EmptyPlanShare != want {
						t.Errorf("empty_plan_share = %v, want %v", rep.EmptyPlanShare, want)
					}
					// Every accepted submit carries at least one measurement.
					if rep.Measurements < rep.Submits || rep.MeasurementsPerSec <= 0 {
						t.Errorf("measurements = %d (%v/s) for %d submits", rep.Measurements, rep.MeasurementsPerSec, rep.Submits)
					}
					if rep.Latency["poll"].Count == 0 {
						t.Error("empty poll histogram")
					}
					if rep.Codec != codec {
						t.Errorf("report codec %q", rep.Codec)
					}
				})
			}
		})
	}
}

// TestLoadgenRemotePlatform drives a platform loadgen did not start: the
// run must advance it cleanly, and the report's task count must be the
// platform's open tasks, not the unused self-host -tasks default.
func TestLoadgenRemotePlatform(t *testing.T) {
	const horizon = 1 << 20
	tasks := make([]task.Task, 25)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(float64(100*(i%5)), float64(100*(i/5))),
			Deadline: horizon,
			Required: horizon,
		}
	}
	mech, err := incentive.NewPaperOnDemand(incentive.RewardScheme{R0: 2, Lambda: 0.5, Levels: demand.LevelMapper{N: 5}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := server.New(server.Config{
		Tasks:          tasks,
		Mechanism:      mech,
		Area:           geo.Square(1000),
		NeighborRadius: 250,
		MaxRounds:      horizon,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	defer srv.Close()
	open := len(p.Round().Tasks)

	outPath := filepath.Join(t.TempDir(), "report.json")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var buf bytes.Buffer
	err = run(ctx, []string{
		"-platform", srv.URL,
		"-workers", "4",
		"-area", "1000",
		"-duration", "1ms",
		"-min-rounds", "5",
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
	if rep.Errors != 0 {
		t.Errorf("protocol errors = %d", rep.Errors)
	}
	if rep.Rounds < 5 {
		t.Errorf("rounds = %d, want >= 5", rep.Rounds)
	}
	if rep.Tasks != open {
		t.Errorf("report tasks = %d, want the platform's %d open tasks", rep.Tasks, open)
	}
	// A given platform is never swapped for a fresh one.
	if rep.Campaigns != 1 {
		t.Errorf("campaigns = %d, want 1", rep.Campaigns)
	}
	if got := p.Board().TotalReceived(); rep.Measurements != int64(got) {
		t.Errorf("report measurements = %d, platform accepted %d", rep.Measurements, got)
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
