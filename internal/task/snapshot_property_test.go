package task

import (
	"math"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
)

// TestSnapshotRoundTripProperty restores randomly exercised boards and
// checks every observable metric survives exactly.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(515)
	for trial := 0; trial < 100; trial++ {
		nTasks := rng.IntBetween(1, 10)
		specs := make([]Task, nTasks)
		for i := range specs {
			specs[i] = Task{
				ID:       ID(i + 1),
				Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
				Deadline: rng.IntBetween(1, 10),
				Required: rng.IntBetween(1, 6),
			}
		}
		b, err := NewBoard(specs)
		if err != nil {
			t.Fatal(err)
		}
		// Random legal contribution pattern, recorded in chronological
		// round order as the real simulation does.
		nUsers := rng.IntBetween(1, 15)
		for round := 1; round <= 10; round++ {
			for attempt := 0; attempt < 6; attempt++ {
				st := b.Get(ID(rng.IntBetween(1, nTasks)))
				user := rng.IntBetween(1, nUsers)
				if !st.OpenAt(round) || st.Contributed(user) {
					continue
				}
				if err := st.Record(user, round, rng.Uniform(0.5, 2.5)); err != nil {
					t.Fatal(err)
				}
			}
		}

		restored, err := RestoreBoard(b.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if restored.TotalReceived() != b.TotalReceived() {
			t.Fatalf("trial %d: TotalReceived %d != %d", trial, restored.TotalReceived(), b.TotalReceived())
		}
		if math.Abs(restored.TotalRewardPaid()-b.TotalRewardPaid()) > 1e-9 {
			t.Fatalf("trial %d: TotalRewardPaid %v != %v", trial, restored.TotalRewardPaid(), b.TotalRewardPaid())
		}
		if restored.Coverage() != b.Coverage() ||
			restored.OverallCompleteness() != b.OverallCompleteness() ||
			restored.StrictCompleteness() != b.StrictCompleteness() {
			t.Fatalf("trial %d: aggregate metrics differ", trial)
		}
		for _, orig := range b.States() {
			rest := restored.Get(orig.ID)
			if orig.Received() != rest.Received() ||
				orig.CompletedRound() != rest.CompletedRound() ||
				orig.Contributors() != rest.Contributors() {
				t.Fatalf("trial %d task %d: per-task state differs", trial, orig.ID)
			}
		}
	}
}
