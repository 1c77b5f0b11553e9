package task

import (
	"encoding/json"
	"testing"

	"paydemand/internal/geo"
)

func TestSnapshotRoundTripState(t *testing.T) {
	s := mustState(t, Task{ID: 3, Location: geo.Pt(10, 20), Deadline: 8, Required: 4})
	_ = s.Record(5, 1, 0.5)
	_ = s.Record(9, 1, 1.0)
	_ = s.Record(2, 3, 1.5)

	snap := s.Snapshot()
	if snap.Task != s.Task || snap.RewardPaid != 3.0 || len(snap.Contributions) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Sorted by round, then user.
	if snap.Contributions[0].User != 5 || snap.Contributions[1].User != 9 || snap.Contributions[2].User != 2 {
		t.Errorf("contributions order = %+v", snap.Contributions)
	}

	restored, err := RestoreState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Received() != 3 || restored.RewardPaid() != 3.0 {
		t.Errorf("restored: received %d paid %v", restored.Received(), restored.RewardPaid())
	}
	for _, u := range []int{5, 9, 2} {
		if !restored.Contributed(u) {
			t.Errorf("restored lost contributor %d", u)
		}
	}
}

func TestSnapshotRoundTripCompletedTask(t *testing.T) {
	s := mustState(t, Task{ID: 1, Location: geo.Pt(0, 0), Deadline: 5, Required: 2})
	_ = s.Record(1, 2, 1)
	_ = s.Record(2, 4, 2)
	restored, err := RestoreState(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Complete() || restored.CompletedRound() != 4 {
		t.Errorf("restored completion: %v round %d", restored.Complete(), restored.CompletedRound())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	b, err := NewBoard([]Task{
		{ID: 1, Location: geo.Pt(0, 0), Deadline: 5, Required: 2},
		{ID: 2, Location: geo.Pt(50, 50), Deadline: 9, Required: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Get(1).Record(1, 1, 0.5)
	_ = b.Get(2).Record(1, 2, 1.5)
	_ = b.Get(2).Record(4, 2, 1.5)

	data, err := json.Marshal(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap BoardSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreBoard(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TotalReceived() != b.TotalReceived() {
		t.Errorf("TotalReceived %d != %d", restored.TotalReceived(), b.TotalReceived())
	}
	if restored.TotalRewardPaid() != b.TotalRewardPaid() {
		t.Errorf("TotalRewardPaid %v != %v", restored.TotalRewardPaid(), b.TotalRewardPaid())
	}
	if restored.Coverage() != b.Coverage() {
		t.Errorf("Coverage %v != %v", restored.Coverage(), b.Coverage())
	}
	// The once-per-user rule must survive the round trip.
	if err := restored.Get(2).Record(1, 5, 1); err == nil {
		t.Error("restored board lost the once-per-user rule")
	}
}

func TestRestoreBoardRejectsDuplicates(t *testing.T) {
	snap := BoardSnapshot{Tasks: []Snapshot{
		{Task: Task{ID: 1, Location: geo.Pt(0, 0), Deadline: 5, Required: 1}},
		{Task: Task{ID: 1, Location: geo.Pt(1, 1), Deadline: 5, Required: 1}},
	}}
	if _, err := RestoreBoard(snap); err == nil {
		t.Error("duplicate snapshot ids accepted")
	}
}

func TestRestoreStateRejectsInvalid(t *testing.T) {
	if _, err := RestoreState(Snapshot{Task: Task{}}); err == nil {
		t.Error("invalid task snapshot accepted")
	}
	// Contribution past the deadline cannot be replayed.
	bad := Snapshot{
		Task:          Task{ID: 1, Location: geo.Pt(0, 0), Deadline: 2, Required: 5},
		Contributions: []ContributionRecord{{User: 1, Round: 9}},
		RewardPaid:    1,
	}
	if _, err := RestoreState(bad); err == nil {
		t.Error("post-deadline contribution accepted")
	}
}

func TestSnapshotEmptyTask(t *testing.T) {
	s := mustState(t, Task{ID: 7, Location: geo.Pt(1, 1), Deadline: 3, Required: 2})
	restored, err := RestoreState(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Received() != 0 || restored.Covered() {
		t.Errorf("restored empty task: %+v", restored)
	}
}
