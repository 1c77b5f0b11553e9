package task

import (
	"math"
	"testing"

	"paydemand/internal/geo"
)

func testBoard(t *testing.T) *Board {
	t.Helper()
	b, err := NewBoard([]Task{
		{ID: 1, Location: geo.Pt(0, 0), Deadline: 5, Required: 2},
		{ID: 2, Location: geo.Pt(100, 0), Deadline: 10, Required: 3},
		{ID: 3, Location: geo.Pt(0, 100), Deadline: 3, Required: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoardDuplicateIDs(t *testing.T) {
	_, err := NewBoard([]Task{
		{ID: 1, Location: geo.Pt(0, 0), Deadline: 5, Required: 2},
		{ID: 1, Location: geo.Pt(1, 1), Deadline: 5, Required: 2},
	})
	if err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestNewBoardInvalidTask(t *testing.T) {
	if _, err := NewBoard([]Task{{ID: 1}}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestBoardAccessors(t *testing.T) {
	b := testBoard(t)
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.Get(2) == nil || b.Get(2).ID != 2 {
		t.Error("Get(2) wrong")
	}
	if b.Get(99) != nil {
		t.Error("Get(99) non-nil")
	}
	if b.MaxDeadline() != 10 {
		t.Errorf("MaxDeadline = %d", b.MaxDeadline())
	}
	if b.TotalRequired() != 6 {
		t.Errorf("TotalRequired = %d", b.TotalRequired())
	}
}

func TestBoardOpenAt(t *testing.T) {
	b := testBoard(t)
	if got := len(b.OpenAt(1)); got != 3 {
		t.Errorf("OpenAt(1) = %d tasks", got)
	}
	if got := len(b.OpenAt(4)); got != 2 {
		t.Errorf("OpenAt(4) = %d tasks, want 2 (task 3 expired)", got)
	}
	// Complete task 1; it must drop out of the open set.
	_ = b.Get(1).Record(1, 1, 0)
	_ = b.Get(1).Record(2, 1, 0)
	if got := len(b.OpenAt(2)); got != 2 {
		t.Errorf("OpenAt(2) = %d tasks after completing task 1", got)
	}
	if b.AllSettledAt(11) != true {
		t.Error("AllSettledAt(11) = false")
	}
	if b.AllSettledAt(2) {
		t.Error("AllSettledAt(2) = true with open tasks")
	}
}

func TestBoardCoverage(t *testing.T) {
	b := testBoard(t)
	if b.Coverage() != 0 {
		t.Errorf("fresh Coverage = %v", b.Coverage())
	}
	_ = b.Get(1).Record(1, 1, 0.5)
	if got := b.Coverage(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Coverage = %v, want 1/3", got)
	}
	_ = b.Get(2).Record(1, 2, 0.5)
	_ = b.Get(3).Record(1, 2, 0.5)
	if b.Coverage() != 1 {
		t.Errorf("Coverage = %v, want 1", b.Coverage())
	}
}

func TestBoardCompleteness(t *testing.T) {
	b := testBoard(t)
	// Task 3 (required 1, deadline 3): completed in round 2.
	_ = b.Get(3).Record(1, 2, 0.5)
	// Task 1 (required 2, deadline 5): half done by deadline.
	_ = b.Get(1).Record(1, 5, 0.5)
	// Task 2 (required 3, deadline 10): nothing.
	want := (0.5 + 0.0 + 1.0) / 3
	if got := b.OverallCompleteness(); math.Abs(got-want) > 1e-12 {
		t.Errorf("OverallCompleteness = %v, want %v", got, want)
	}
	if got := b.StrictCompleteness(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("StrictCompleteness = %v, want 1/3", got)
	}
}

func TestBoardMeasurementAccounting(t *testing.T) {
	b := testBoard(t)
	_ = b.Get(1).Record(1, 1, 0.5)
	_ = b.Get(1).Record(2, 1, 1.5)
	_ = b.Get(2).Record(1, 2, 1.0)
	if b.TotalReceived() != 3 {
		t.Errorf("TotalReceived = %d", b.TotalReceived())
	}
	if b.TotalRewardPaid() != 3.0 {
		t.Errorf("TotalRewardPaid = %v", b.TotalRewardPaid())
	}
	if got := b.AverageRewardPerMeasurement(); got != 1.0 {
		t.Errorf("AverageRewardPerMeasurement = %v", got)
	}
	counts := b.MeasurementCounts()
	if len(counts) != 3 || counts[0] != 2 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("MeasurementCounts = %v", counts)
	}
}

func TestBoardAverageRewardNoMeasurements(t *testing.T) {
	b := testBoard(t)
	if got := b.AverageRewardPerMeasurement(); got != 0 {
		t.Errorf("AverageRewardPerMeasurement(empty) = %v", got)
	}
}

func TestBoardEmpty(t *testing.T) {
	b, err := NewBoard(nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Coverage() != 1 || b.OverallCompleteness() != 1 || b.StrictCompleteness() != 1 {
		t.Error("empty board metrics should be 1")
	}
	if b.MaxDeadline() != 0 {
		t.Error("empty board MaxDeadline != 0")
	}
}

func TestBoardStatesCopy(t *testing.T) {
	b := testBoard(t)
	ss := b.States()
	ss[0] = nil
	if b.Get(1) == nil {
		t.Error("States() aliased internal slice")
	}
}
