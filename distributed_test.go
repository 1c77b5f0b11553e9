package paydemand_test

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paydemand"
)

// TestPublicDistributedAPI drives a full distributed campaign through the
// public facade only: platform, client, worker, estimates and snapshot
// round trip.
func TestPublicDistributedAPI(t *testing.T) {
	scheme, err := paydemand.NewRewardScheme(300, 4, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := paydemand.NewOnDemandMechanism(scheme)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := paydemand.NewPlatform(paydemand.PlatformConfig{
		Tasks: []paydemand.Task{
			{ID: 1, Location: paydemand.Pt(400, 400), Deadline: 4, Required: 2},
			{ID: 2, Location: paydemand.Pt(700, 500), Deadline: 4, Required: 2},
		},
		Mechanism:      mech,
		Area:           paydemand.Square(3000),
		NeighborRadius: 500,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(platform)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := paydemand.NewClient(srv.URL, srv.Client())

	for i := 0; i < 2; i++ {
		w, err := paydemand.NewWorker(ctx, c, paydemand.WorkerConfig{
			Start:        paydemand.Pt(float64(300+i*100), 400),
			Sensor:       func(_ int64, loc paydemand.Point) float64 { return loc.X / 10 },
			PollInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}

	status, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.TotalMeasurements != 4 {
		t.Fatalf("measurements = %d, want 4", status.TotalMeasurements)
	}
	est, err := c.Estimate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 40 {
		t.Errorf("estimate = %v, want 40 (x/10 at x=400)", est.Value)
	}

	// Snapshot through the facade.
	var sb strings.Builder
	if err := platform.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	snap, err := paydemand.ReadPlatformSnapshot(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Round != 1 || len(snap.Workers) != 2 {
		t.Errorf("snapshot = round %d, %d workers", snap.Round, len(snap.Workers))
	}
}
