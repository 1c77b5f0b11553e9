package sim

import (
	"math"
	"testing"

	"paydemand/internal/incentive"
	"paydemand/internal/task"
)

// emptyRewardMechanism publishes no rewards at all, modeling a mechanism
// whose budget is exhausted while tasks are still open.
type emptyRewardMechanism struct{}

func (emptyRewardMechanism) Name() string { return "empty-stub" }

func (emptyRewardMechanism) RewardsInto(*incentive.RoundInput, map[task.ID]float64) error {
	return nil
}

// TestEmptyRewardMapNoNaN is the regression for the MeanPublishedReward
// division: a mechanism returning an empty reward map while tasks are
// open must record a zero mean, not 0/0 = NaN, and the run's aggregate
// metrics must stay finite.
func TestEmptyRewardMapNoNaN(t *testing.T) {
	s, err := New(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s.mech = emptyRewardMechanism{}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds ran")
	}
	for _, rs := range res.Rounds {
		if rs.OpenTasks == 0 {
			continue
		}
		if math.IsNaN(rs.MeanPublishedReward) {
			t.Fatalf("round %d: MeanPublishedReward is NaN with empty reward map", rs.Round)
		}
		if rs.MeanPublishedReward != 0 {
			t.Errorf("round %d: MeanPublishedReward = %v, want 0", rs.Round, rs.MeanPublishedReward)
		}
	}
	// With no rewards no user has a profitable plan, so nothing is measured
	// and nothing paid — but every final metric must still be finite.
	for name, v := range map[string]float64{
		"AvgRewardPerMeasurement": res.AvgRewardPerMeasurement,
		"AvgUserProfit":           res.AvgUserProfit,
		"Coverage":                res.Coverage,
		"OverallCompleteness":     res.OverallCompleteness,
	} {
		if math.IsNaN(v) {
			t.Errorf("%s is NaN", name)
		}
	}
}
