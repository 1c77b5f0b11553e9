package workload

import (
	"testing"

	"paydemand/internal/stats"
)

func TestGenerateDefaultsMatchPaper(t *testing.T) {
	sc, err := Generate(stats.NewRNG(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tasks) != 20 {
		t.Errorf("tasks = %d, want 20", len(sc.Tasks))
	}
	if len(sc.UserLocations) != 100 {
		t.Errorf("users = %d, want 100", len(sc.UserLocations))
	}
	if sc.Area.Width() != 3000 || sc.Area.Height() != 3000 {
		t.Errorf("area = %v", sc.Area)
	}
	for _, tk := range sc.Tasks {
		if tk.Required != 20 {
			t.Errorf("task %d required = %d, want 20", tk.ID, tk.Required)
		}
		if tk.Deadline < 5 || tk.Deadline > 15 {
			t.Errorf("task %d deadline = %d, want in [5, 15]", tk.ID, tk.Deadline)
		}
		if !sc.Area.Contains(tk.Location) {
			t.Errorf("task %d outside area: %v", tk.ID, tk.Location)
		}
		if err := tk.Validate(); err != nil {
			t.Errorf("task %d invalid: %v", tk.ID, err)
		}
	}
	for i, loc := range sc.UserLocations {
		if !sc.Area.Contains(loc) {
			t.Errorf("user %d outside area: %v", i, loc)
		}
	}
}

func TestGenerateSequentialIDs(t *testing.T) {
	sc, err := Generate(stats.NewRNG(1), Config{NumTasks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range sc.Tasks {
		if int(tk.ID) != i+1 {
			t.Errorf("task %d has ID %d", i, tk.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(stats.NewRNG(77), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(stats.NewRNG(77), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs across equal seeds", i)
		}
	}
	for i := range a.UserLocations {
		if !a.UserLocations[i].Equal(b.UserLocations[i]) {
			t.Fatalf("user %d location differs across equal seeds", i)
		}
	}
}

func TestGenerateCustomCounts(t *testing.T) {
	sc, err := Generate(stats.NewRNG(1), Config{NumTasks: 7, NumUsers: 13, Required: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Tasks) != 7 || len(sc.UserLocations) != 13 {
		t.Errorf("counts = %d tasks, %d users", len(sc.Tasks), len(sc.UserLocations))
	}
	if sc.Tasks[0].Required != 3 {
		t.Errorf("required = %d", sc.Tasks[0].Required)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"negative users", Config{NumUsers: -1}},
		{"negative tasks", Config{NumTasks: -1}},
		{"negative required", Config{Required: -2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateZeroUsersAllowed(t *testing.T) {
	// NumUsers has a non-zero default, so use -0 semantics: explicit tiny
	// scenario via NumUsers: 1 is the smallest; zero means default.
	sc, err := Generate(stats.NewRNG(1), Config{NumUsers: 1, NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.UserLocations) != 1 || len(sc.Tasks) != 1 {
		t.Errorf("counts: %d users %d tasks", len(sc.UserLocations), len(sc.Tasks))
	}
}
