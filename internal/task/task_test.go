package task

import (
	"errors"
	"math"
	"testing"

	"paydemand/internal/geo"
)

func validTask() Task {
	return Task{ID: 1, Location: geo.Pt(100, 100), Deadline: 10, Required: 3}
}

func mustState(t *testing.T, spec Task) *State {
	t.Helper()
	s, err := NewState(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTaskValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Task)
		ok     bool
	}{
		{"valid", func(*Task) {}, true},
		{"zero deadline", func(x *Task) { x.Deadline = 0 }, false},
		{"negative deadline", func(x *Task) { x.Deadline = -3 }, false},
		{"zero required", func(x *Task) { x.Required = 0 }, false},
		{"nan location", func(x *Task) { x.Location = geo.Pt(math.NaN(), 0) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := validTask()
			tt.mutate(&spec)
			err := spec.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate accepted invalid task")
			}
		})
	}
}

func TestNewStateRejectsInvalid(t *testing.T) {
	if _, err := NewState(Task{}); err == nil {
		t.Error("zero task accepted")
	}
}

func TestRecordLifecycle(t *testing.T) {
	s := mustState(t, validTask())
	if s.Covered() || s.Complete() {
		t.Error("fresh task covered/complete")
	}
	if err := s.Record(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if !s.Covered() || s.Received() != 1 {
		t.Errorf("after first record: received=%d", s.Received())
	}
	if err := s.Record(2, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(3, 2, 1.0); err != nil {
		t.Fatal(err)
	}
	if !s.Complete() || s.CompletedRound() != 2 {
		t.Errorf("complete=%v completedRound=%d", s.Complete(), s.CompletedRound())
	}
	if s.RewardPaid() != 2.0 {
		t.Errorf("RewardPaid = %v, want 2", s.RewardPaid())
	}
}

func TestRecordOncePerUser(t *testing.T) {
	s := mustState(t, validTask())
	if err := s.Record(7, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	err := s.Record(7, 2, 0.5)
	if !errors.Is(err, ErrAlreadyContributed) {
		t.Errorf("second contribution err = %v", err)
	}
	if s.Received() != 1 {
		t.Errorf("Received = %d after rejected record", s.Received())
	}
}

func TestRecordAfterComplete(t *testing.T) {
	spec := validTask()
	spec.Required = 1
	s := mustState(t, spec)
	if err := s.Record(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(2, 1, 0.5); !errors.Is(err, ErrCompleted) {
		t.Errorf("record after complete err = %v", err)
	}
}

func TestRecordAfterDeadline(t *testing.T) {
	s := mustState(t, validTask())
	if err := s.Record(1, 11, 0.5); !errors.Is(err, ErrExpired) {
		t.Errorf("record after deadline err = %v", err)
	}
}

func TestRecordBadRound(t *testing.T) {
	s := mustState(t, validTask())
	if err := s.Record(1, 0, 0.5); !errors.Is(err, ErrBadRound) {
		t.Errorf("round 0 err = %v", err)
	}
}

func TestOpenExpired(t *testing.T) {
	s := mustState(t, validTask())
	if !s.OpenAt(1) || !s.OpenAt(10) {
		t.Error("task not open within deadline")
	}
	if s.OpenAt(11) || s.OpenAt(0) {
		t.Error("task open outside deadline/round range")
	}
	// Completed tasks close before their deadline.
	spec := validTask()
	spec.Required = 1
	done := mustState(t, spec)
	if err := done.Record(1, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if done.OpenAt(5) {
		t.Error("completed task reported open")
	}
}

func TestContributors(t *testing.T) {
	s := mustState(t, validTask())
	_ = s.Record(5, 1, 0)
	if !s.Contributed(5) || s.Contributed(6) {
		t.Error("Contributed wrong")
	}
	if s.Contributors() != 1 {
		t.Errorf("Contributors = %d", s.Contributors())
	}
}
