package sat

import (
	"math"
	"testing"

	"paydemand/internal/workload"
)

func smallConfig() Config {
	return Config{
		Workload: workload.Config{NumTasks: 8, NumUsers: 30, Required: 5},
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	res, err := Run(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "sat-auction" || res.Algorithm != "reverse-auction" {
		t.Errorf("identity: %s/%s", res.Mechanism, res.Algorithm)
	}
	if res.TotalMeasurements == 0 {
		t.Fatal("auction assigned nothing")
	}
	if res.Coverage <= 0 || res.Coverage > 1 {
		t.Errorf("coverage = %v", res.Coverage)
	}
	for i, p := range res.UserProfits {
		if p < -1e-9 {
			t.Errorf("user %d has negative profit %v (first-price with margin must be profitable)", i+1, p)
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a, err := Run(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMeasurements != b.TotalMeasurements || a.TotalRewardPaid != b.TotalRewardPaid {
		t.Error("same seed diverged")
	}
}

func TestBudgetRespected(t *testing.T) {
	cfg := smallConfig()
	cfg.Budget = 1 // starves the auction quickly
	res, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRewardPaid > cfg.Budget+1e-9 {
		t.Errorf("paid %v > budget %v", res.TotalRewardPaid, cfg.Budget)
	}
}

func TestOncePerUserRule(t *testing.T) {
	s, err := New(smallConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.Board().States() {
		if st.Received() > st.Required {
			t.Errorf("task %d over-filled", st.ID)
		}
		if st.Contributors() != st.Received() {
			t.Errorf("task %d contributors != received", st.ID)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
		{"negative budget", func(c *Config) { c.Budget = -10 }},
		{"negative speed", func(c *Config) { c.UserSpeed = -2 }},
		{"bad workload", func(c *Config) { c.Workload.NumTasks = -1 }},
		{"NaN speed", func(c *Config) { c.UserSpeed = math.NaN() }},
		{"infinite speed", func(c *Config) { c.UserSpeed = math.Inf(1) }},
		{"infinite time budget", func(c *Config) { c.UserTimeBudget = math.Inf(1) }},
		{"NaN time budget", func(c *Config) { c.UserTimeBudget = math.NaN() }},
		{"speed times time budget overflows", func(c *Config) { c.UserSpeed, c.UserTimeBudget = 1e200, 1e200 }},
		{"NaN cost per meter", func(c *Config) { c.CostPerMeter = math.NaN() }},
		{"infinite cost per meter", func(c *Config) { c.CostPerMeter = math.Inf(1) }},
		{"NaN budget", func(c *Config) { c.Budget = math.NaN() }},
		{"infinite budget", func(c *Config) { c.Budget = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := New(cfg, 1); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestPaymentsCoverCosts(t *testing.T) {
	// First-price payments with DefaultMargin mean the platform pays
	// cost*(1+margin)+minBid per award; total profit equals total margin.
	res, err := Run(smallConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	profit := 0.0
	for _, p := range res.UserProfits {
		profit += p
	}
	if profit <= 0 {
		t.Errorf("aggregate profit %v, want > 0", profit)
	}
	if res.TotalRewardPaid <= profit {
		t.Errorf("payments %v not exceeding profits %v", res.TotalRewardPaid, profit)
	}
}

func TestMarginalTravelFeasibility(t *testing.T) {
	// Tight time budgets: no user's awards may exceed its travel range.
	cfg := smallConfig()
	cfg.UserTimeBudget = 120 // 240 m of walking
	s, err := New(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With such short legs most tasks are unreachable; the campaign must
	// still terminate and respect the budget math (profit >= 0 etc.).
	if math.IsNaN(res.AvgUserProfit) {
		t.Error("NaN profit")
	}
}

func TestRoundStatsMonotone(t *testing.T) {
	res, err := Run(smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	prevCov := 0.0
	for _, r := range res.Rounds {
		if r.Coverage < prevCov-1e-12 {
			t.Errorf("coverage decreased at round %d", r.Round)
		}
		prevCov = r.Coverage
	}
}
