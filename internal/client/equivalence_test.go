package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// TestCodecEquivalence is the protocol's core guarantee: a campaign
// driven entirely over TLV produces byte-identical outcomes to the same
// campaign over JSON, and a fleet that asks POST /v1/plan for its plans
// produces the same outcomes as one that solves locally. Workers step in
// a fixed order with a deterministic sensor, rounds advance
// synchronously, and the final /v1/status bodies (always JSON, the
// canonical record) are compared byte for byte — so any codec or plan
// source divergence in rewards, demand levels, or aggregation inputs
// shows up as a diff, not a tolerance. Per-worker profits must match
// exactly too.
func TestCodecEquivalence(t *testing.T) {
	boards := []board{
		{"3 tasks", defaultTasks(), []geo.Point{geo.Pt(150, 150), geo.Pt(450, 350), geo.Pt(2700, 2700)}},
		randomBoard(60, 12),
	}
	runCampaign := func(b board, codec Codec, platformPlans bool) ([]byte, []float64) {
		t.Helper()
		_, srv := startPlatform(t, b.tasks)
		c := New(srv.URL, srv.Client(), WithCodec(codec))
		ctx := context.Background()

		sensor := func(taskID int64, loc geo.Point) float64 {
			return float64(taskID)*1.5 + loc.X*0.01 + loc.Y*0.003
		}
		workers := make([]*Worker, len(b.starts))
		for i, start := range b.starts {
			w, err := NewWorker(ctx, c, WorkerConfig{Start: start, Sensor: sensor, PlatformPlans: platformPlans})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = w
		}

		for round := 0; round < 20; round++ {
			for _, w := range workers {
				if _, err := w.Step(ctx); err != nil {
					t.Fatal(err)
				}
			}
			adv, err := c.Advance(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if adv.Done {
				break
			}
		}

		resp, err := srv.Client().Get(srv.URL + wire.PathStatus)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		profits := make([]float64, len(workers))
		for i, w := range workers {
			profits[i] = w.Profit()
		}
		return body, profits
	}

	for _, b := range boards {
		t.Run(b.name, func(t *testing.T) {
			wantBody, wantProfits := runCampaign(b, CodecJSON, false)
			var status wire.StatusResponse
			if err := json.Unmarshal(wantBody, &status); err != nil {
				t.Fatal(err)
			}
			if status.TotalMeasurements < len(b.starts) {
				t.Fatalf("campaign recorded %d measurements for %d workers; too few to compare", status.TotalMeasurements, len(b.starts))
			}
			for _, platformPlans := range []bool{false, true} {
				for _, codec := range []Codec{CodecJSON, CodecTLV} {
					if codec == CodecJSON && !platformPlans {
						continue
					}
					name := fmt.Sprintf("codec %d, platform plans %v", codec, platformPlans)
					body, profits := runCampaign(b, codec, platformPlans)
					if !bytes.Equal(body, wantBody) {
						t.Errorf("%s: campaign outcome differs from JSON with local solving:\n got:  %s\n want: %s", name, body, wantBody)
					}
					for i := range profits {
						if profits[i] != wantProfits[i] {
							t.Errorf("%s: worker %d profit %v, want %v", name, i, profits[i], wantProfits[i])
						}
					}
				}
			}
		})
	}
}

// board is a campaign's tasks and the fleet's starting locations.
type board struct {
	name   string
	tasks  []task.Task
	starts []geo.Point
}

// randomBoard places nTasks tasks and nWorkers worker starts uniformly in
// startPlatform's 3 km square, with short deadlines and small demands so
// the campaign both fills tasks and lets some expire.
func randomBoard(nTasks, nWorkers int) (b board) {
	rng := stats.NewRNG(7)
	b.name = fmt.Sprintf("%d tasks", nTasks)
	for i := 0; i < nTasks; i++ {
		b.tasks = append(b.tasks, task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
			Deadline: rng.IntBetween(3, 8),
			Required: rng.IntBetween(1, 4),
		})
	}
	for i := 0; i < nWorkers; i++ {
		b.starts = append(b.starts, geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)))
	}
	return b
}
