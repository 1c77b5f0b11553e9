package incentive

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"paydemand/internal/demand"
)

func paperScheme(t *testing.T) RewardScheme {
	t.Helper()
	s, err := SchemeFromBudget(1000, 400, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPaperR0 checks Eq. 9 with the paper's evaluation constants:
// B = 1000, 20 tasks x 20 measurements, lambda = 0.5, N = 5 => r0 = 0.5.
func TestPaperR0(t *testing.T) {
	r0, err := R0FromBudget(1000, 400, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-0.5) > 1e-12 {
		t.Errorf("r0 = %v, want 0.5", r0)
	}
}

func TestRewardEq7(t *testing.T) {
	s := paperScheme(t)
	// r = r0 + lambda*(DL-1): levels 1..5 -> 0.5, 1.0, 1.5, 2.0, 2.5.
	for lvl := 1; lvl <= 5; lvl++ {
		want := 0.5 + 0.5*float64(lvl-1)
		if got := s.Reward(lvl); math.Abs(got-want) > 1e-12 {
			t.Errorf("Reward(%d) = %v, want %v", lvl, got, want)
		}
	}
	if got := s.Reward(0); got != s.Reward(1) {
		t.Errorf("Reward(0) not clamped: %v", got)
	}
	if got := s.Reward(9); got != s.Reward(5) {
		t.Errorf("Reward(9) not clamped: %v", got)
	}
}

func TestMaxRewardAndPayoutEq8(t *testing.T) {
	s := paperScheme(t)
	if got := s.MaxReward(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("MaxReward = %v, want 2.5", got)
	}
	// Eq. 8: worst-case payout with the derived r0 exactly equals B.
	if got := s.MaxTotalPayout(400); math.Abs(got-1000) > 1e-9 {
		t.Errorf("MaxTotalPayout = %v, want 1000", got)
	}
}

func TestBudgetConstraintProperty(t *testing.T) {
	// For any valid budget/requirement/lambda/levels combination, the
	// derived scheme's worst-case payout never exceeds the budget.
	f := func(budgetRaw, lambdaRaw uint16, reqRaw, nRaw uint8) bool {
		budget := 1 + float64(budgetRaw)
		lambda := float64(lambdaRaw) / 1000
		totalRequired := 1 + int(reqRaw)
		levels := demand.LevelMapper{N: 1 + int(nRaw)%10}
		s, err := SchemeFromBudget(budget, totalRequired, lambda, levels)
		if err != nil {
			return errors.Is(err, ErrBudgetTooSmall) // legal outcome
		}
		return s.MaxTotalPayout(totalRequired) <= budget+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestR0FromBudgetErrors(t *testing.T) {
	lm := demand.LevelMapper{N: 5}
	if _, err := R0FromBudget(1, 400, 0.5, lm); !errors.Is(err, ErrBudgetTooSmall) {
		t.Errorf("tiny budget err = %v", err)
	}
	if _, err := R0FromBudget(1000, 0, 0.5, lm); err == nil {
		t.Error("zero required accepted")
	}
	if _, err := R0FromBudget(-5, 400, 0.5, lm); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := R0FromBudget(1000, 400, -1, lm); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := R0FromBudget(1000, 400, 0.5, demand.LevelMapper{N: 0}); err == nil {
		t.Error("invalid level mapper accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := R0FromBudget(v, 400, 0.5, lm); err == nil {
			t.Errorf("budget %v accepted", v)
		}
		if _, err := R0FromBudget(1000, 400, v, lm); err == nil {
			t.Errorf("lambda %v accepted", v)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	if err := (RewardScheme{R0: 0, Lambda: 1, Levels: demand.LevelMapper{N: 5}}).Validate(); err == nil {
		t.Error("r0=0 accepted")
	}
	if err := (RewardScheme{R0: 1, Lambda: -1, Levels: demand.LevelMapper{N: 5}}).Validate(); err == nil {
		t.Error("negative lambda accepted")
	}
	if err := (RewardScheme{R0: 1, Lambda: 1, Levels: demand.LevelMapper{N: 0}}).Validate(); err == nil {
		t.Error("bad levels accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (RewardScheme{R0: v, Lambda: 1, Levels: demand.LevelMapper{N: 5}}).Validate(); err == nil {
			t.Errorf("r0=%v accepted", v)
		}
		if err := (RewardScheme{R0: 1, Lambda: v, Levels: demand.LevelMapper{N: 5}}).Validate(); err == nil {
			t.Errorf("lambda=%v accepted", v)
		}
	}
}

func TestRewardForDemand(t *testing.T) {
	s := paperScheme(t)
	if got := s.RewardForDemand(0.0); got != 0.5 {
		t.Errorf("RewardForDemand(0) = %v, want 0.5", got)
	}
	if got := s.RewardForDemand(1.0); got != 2.5 {
		t.Errorf("RewardForDemand(1) = %v, want 2.5", got)
	}
	if got := s.RewardForDemand(0.45); got != 1.5 {
		t.Errorf("RewardForDemand(0.45) = %v, want 1.5 (level 3)", got)
	}
}

func TestRewardMonotoneInDemandProperty(t *testing.T) {
	s := paperScheme(t)
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		if a > b {
			a, b = b, a
		}
		return s.RewardForDemand(a) <= s.RewardForDemand(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
