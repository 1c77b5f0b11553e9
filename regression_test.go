package paydemand_test

import (
	"math"
	"testing"

	"paydemand"
)

// TestCampaignRegression pins the exact metrics of one deterministic
// paper-default campaign per mechanism. Any change to the round loop, the
// demand math, the solvers, or the RNG plumbing shows up here as a diff —
// update the table deliberately when the change is intended.
func TestCampaignRegression(t *testing.T) {
	tests := []struct {
		name         string
		cfg          paydemand.Config
		measurements int
		coverage     float64
		rewardPaid   float64
	}{
		{"on-demand", paydemand.Config{Mechanism: paydemand.MechanismOnDemand}, 397, 1.0, 471.0},
		{"fixed", paydemand.Config{Mechanism: paydemand.MechanismFixed}, 343, 1.0, 544.0},
		{"steered", paydemand.Config{Mechanism: paydemand.MechanismSteered}, 320, 1.0, 746.6185118863771},
		// At the default cost every user wins every round and the
		// auction pays B/k = 10; at 0.02 per meter the bids bind, so
		// the reward paid pins each round's bid values.
		{"auction", paydemand.Config{Mechanism: paydemand.MechanismAuction}, 400, 1.0, 4000.0},
		{"auction-costly-bids", paydemand.Config{Mechanism: paydemand.MechanismAuction, CostPerMeter: 0.02}, 397, 1.0, 4915.334511106857},
		{"incentme", paydemand.Config{Mechanism: paydemand.MechanismIncentMe}, 400, 1.0, 772.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := paydemand.Run(tt.cfg, 12345)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalMeasurements != tt.measurements {
				t.Errorf("measurements = %d, want %d", res.TotalMeasurements, tt.measurements)
			}
			if res.Coverage != tt.coverage {
				t.Errorf("coverage = %v, want %v", res.Coverage, tt.coverage)
			}
			if math.Abs(res.TotalRewardPaid-tt.rewardPaid) > 1e-6 {
				t.Errorf("reward paid = %v, want %v", res.TotalRewardPaid, tt.rewardPaid)
			}
		})
	}
}

// TestSATRegression pins the SAT baseline the same way.
func TestSATRegression(t *testing.T) {
	res, err := paydemand.RunSAT(paydemand.SATConfig{}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "sat-auction" {
		t.Errorf("mechanism = %q", res.Mechanism)
	}
	if res.TotalMeasurements == 0 || res.Coverage == 0 {
		t.Errorf("degenerate SAT run: %+v", res)
	}
}

// TestPublicSATAPI exercises the facade wrappers.
func TestPublicSATAPI(t *testing.T) {
	s, err := paydemand.NewSATSimulation(paydemand.SATConfig{
		Workload: paydemand.WorkloadConfig{NumTasks: 4, NumUsers: 10, Required: 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 4 {
		t.Errorf("tasks = %d", res.Tasks)
	}
}
