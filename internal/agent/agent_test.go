package agent

import (
	"math"
	"testing"

	"paydemand/internal/geo"
)

func TestNewDefaults(t *testing.T) {
	u := New(3, geo.Pt(10, 20))
	if u.ID != 3 || !u.Location.Equal(geo.Pt(10, 20)) {
		t.Errorf("identity fields wrong: %+v", u)
	}
	if u.Speed != 2.0 || u.CostPerMeter != 0.002 || u.TimeBudget != 600 {
		t.Errorf("paper defaults wrong: %+v", u)
	}
	if err := u.Validate(); err != nil {
		t.Errorf("default user invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*User)
	}{
		{"zero speed", func(u *User) { u.Speed = 0 }},
		{"negative budget", func(u *User) { u.TimeBudget = -1 }},
		{"negative cost", func(u *User) { u.CostPerMeter = -0.1 }},
		{"nan location", func(u *User) { u.Location = geo.Pt(math.NaN(), 0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u := New(1, geo.Pt(0, 0))
			tt.mutate(u)
			if err := u.Validate(); err == nil {
				t.Error("invalid user accepted")
			}
		})
	}
}

func TestTravelMath(t *testing.T) {
	u := New(1, geo.Pt(0, 0))
	if got := u.MaxTravelDistance(); got != 1200 {
		t.Errorf("MaxTravelDistance = %v, want 1200", got)
	}
	if got := u.TravelTime(100); got != 50 {
		t.Errorf("TravelTime(100) = %v, want 50", got)
	}
}

func TestProfitAccumulation(t *testing.T) {
	u := New(1, geo.Pt(0, 0))
	u.AddProfit(3)
	u.AddProfit(1.5)
	if u.Profit() != 4.5 {
		t.Errorf("Profit = %v, want 4.5", u.Profit())
	}
}

func TestDoneTracking(t *testing.T) {
	u := New(1, geo.Pt(0, 0))
	if u.HasDone(5) {
		t.Error("fresh user has done tasks")
	}
	u.MarkDone(5)
	u.MarkDone(7)
	u.MarkDone(5) // idempotent
	if !u.HasDone(5) || !u.HasDone(7) || u.HasDone(6) {
		t.Error("HasDone wrong")
	}
	if u.DoneCount() != 2 {
		t.Errorf("DoneCount = %d, want 2", u.DoneCount())
	}
}

func TestMarkDoneNilMap(t *testing.T) {
	u := &User{ID: 1, Speed: 1, TimeBudget: 1}
	u.MarkDone(3) // must not panic with a zero-value-ish struct
	if !u.HasDone(3) {
		t.Error("MarkDone on nil map failed")
	}
}

func TestMoveTo(t *testing.T) {
	u := New(1, geo.Pt(0, 0))
	u.MoveTo(geo.Pt(5, 5))
	if !u.Location.Equal(geo.Pt(5, 5)) {
		t.Errorf("Location = %v", u.Location)
	}
}

func TestLocations(t *testing.T) {
	users := []*User{New(1, geo.Pt(1, 1)), New(2, geo.Pt(2, 2))}
	locs := LocationsInto([]geo.Point{geo.Pt(9, 9), geo.Pt(9, 9), geo.Pt(9, 9)}, users)
	if len(locs) != 2 || !locs[0].Equal(geo.Pt(1, 1)) || !locs[1].Equal(geo.Pt(2, 2)) {
		t.Errorf("LocationsInto = %v", locs)
	}
}
