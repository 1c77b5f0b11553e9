package incentive

import (
	"math"
	"strings"
	"testing"

	"paydemand/internal/task"
)

// flatForecast is a test double returning one fixed expected-neighbor
// count regardless of horizon.
type flatForecast struct{ supply float64 }

func (f flatForecast) Name() string                       { return "flat" }
func (f flatForecast) ExpectedNeighbors(int, int) float64 { return f.supply }

// drainForecast halves the current count per horizon round, modeling a
// neighborhood that empties out.
type drainForecast struct{}

func (drainForecast) Name() string { return "drain" }

func (drainForecast) ExpectedNeighbors(current, horizon int) float64 {
	return float64(current) * math.Pow(0.5, float64(horizon))
}

func TestIncentMeBasics(t *testing.T) {
	m, err := NewIncentMe(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "incentme" {
		t.Errorf("Name = %q", m.Name())
	}
	if _, err := NewIncentMe(RewardScheme{}); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestIncentMeRequiresForecast(t *testing.T) {
	m, err := NewIncentMe(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := price(m, &RoundInput{Round: 1, Views: testViews()}); err == nil || !strings.Contains(err.Error(), "Mobility") {
		t.Errorf("nil forecast: err = %v, want one naming Mobility", err)
	}
}

func TestIncentMeScarcityDirection(t *testing.T) {
	scheme := paperScheme(t)
	m, err := NewIncentMe(scheme)
	if err != nil {
		t.Fatal(err)
	}
	// Same deficit, same current neighbors — but task 2's neighborhood is
	// forecast to drain (deadline far away under a draining model), so it
	// must be priced at least as high as the short-horizon task. With a
	// flat forecast both price identically.
	views := []TaskView{
		{ID: 1, Deadline: 2, Required: 20, Received: 0, Neighbors: 8},
		{ID: 2, Deadline: 12, Required: 20, Received: 0, Neighbors: 8},
	}
	flat, err := price(m, &RoundInput{Round: 1, Views: views, Mobility: flatForecast{supply: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if flat[1] != flat[2] {
		t.Errorf("flat forecast prices differ: %v vs %v", flat[1], flat[2])
	}
	drained, err := price(m, &RoundInput{Round: 1, Views: views, Mobility: drainForecast{}})
	if err != nil {
		t.Fatal(err)
	}
	if drained[2] < drained[1] {
		t.Errorf("draining long-horizon task priced %v below short-horizon %v", drained[2], drained[1])
	}
	if drained[2] != scheme.MaxReward() {
		t.Errorf("scarcest task = %v, want the max reward %v", drained[2], scheme.MaxReward())
	}
	// Rewards stay on the scheme's ladder.
	for id, r := range flat {
		if r < scheme.R0-1e-12 || r > scheme.MaxReward()+1e-12 {
			t.Errorf("task %d reward %v outside scheme range", id, r)
		}
	}
}

func TestIncentMeCompletedTasksFloor(t *testing.T) {
	scheme := paperScheme(t)
	m, err := NewIncentMe(scheme)
	if err != nil {
		t.Fatal(err)
	}
	// All tasks overfilled: zero scarcity everywhere, everything at the
	// floor reward.
	views := []TaskView{
		{ID: 1, Deadline: 10, Required: 5, Received: 9},
		{ID: 2, Deadline: 10, Required: 5, Received: 5},
	}
	rewards, err := price(m, &RoundInput{Round: 1, Views: views, Mobility: flatForecast{supply: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rewards[1] != scheme.R0 || rewards[2] != scheme.R0 {
		t.Errorf("zero-scarcity rewards = %v, want floor %v", rewards, scheme.R0)
	}
}

func TestIncentMeRejectsBadForecast(t *testing.T) {
	m, err := NewIncentMe(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := price(m, &RoundInput{Round: 1, Views: testViews(), Mobility: flatForecast{supply: bad}}); err == nil {
			t.Errorf("forecast value %v accepted", bad)
		}
	}
}

func TestIncentMeZeroAllocSteadyState(t *testing.T) {
	m, err := NewIncentMe(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	views := testViews()
	in := &RoundInput{Round: 1, Views: views, Mobility: flatForecast{supply: 4}}
	out := make(map[task.ID]float64, len(views))
	if err := m.RewardsInto(in, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		clear(out)
		if err := m.RewardsInto(in, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state RewardsInto allocates %v objects/op, want 0", allocs)
	}
}
