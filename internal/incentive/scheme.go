package incentive

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/demand"
)

// Errors returned by reward-scheme construction.
var (
	ErrBudgetTooSmall = errors.New("incentive: budget cannot fund level-1 rewards (r0 <= 0)")
	ErrBadScheme      = errors.New("incentive: invalid reward scheme")
)

// RewardScheme is the paper's level-to-reward rule (Eq. 7):
//
//	r_ti^k = r0 + lambda * (DL_ti^k - 1)
//
// where DL is the task's demand level at round k.
type RewardScheme struct {
	// R0 is the reward of demand level 1, in dollars.
	R0 float64 `json:"r0"`
	// Lambda is the per-level reward increment, in dollars.
	Lambda float64 `json:"lambda"`
	// Levels maps normalized demand onto demand levels.
	Levels demand.LevelMapper `json:"levels"`
}

// Validate checks the scheme. R0 and Lambda must be finite; the
// comparisons are written so that NaN fails them.
func (s RewardScheme) Validate() error {
	if err := s.Levels.Validate(); err != nil {
		return err
	}
	if !(s.R0 > 0) || math.IsInf(s.R0, 1) {
		return fmt.Errorf("%w: r0 = %v, want finite > 0", ErrBadScheme, s.R0)
	}
	if !(s.Lambda >= 0) || math.IsInf(s.Lambda, 1) {
		return fmt.Errorf("%w: lambda = %v, want finite >= 0", ErrBadScheme, s.Lambda)
	}
	return nil
}

// Reward returns the reward of the given demand level (Eq. 7). Levels are
// clamped into [1, Levels.N].
func (s RewardScheme) Reward(level int) float64 {
	if level < 1 {
		level = 1
	}
	if level > s.Levels.N {
		level = s.Levels.N
	}
	return s.R0 + s.Lambda*float64(level-1)
}

// RewardForDemand maps a normalized demand straight to its reward.
func (s RewardScheme) RewardForDemand(normalized float64) float64 {
	return s.Reward(s.Levels.Level(normalized))
}

// MaxReward returns the reward of the highest demand level,
// r0 + lambda*(N-1), the per-measurement bound used in Eq. 8.
func (s RewardScheme) MaxReward() float64 {
	return s.R0 + s.Lambda*float64(s.Levels.N-1)
}

// MaxTotalPayout returns the worst-case total payout for a campaign needing
// totalRequired measurements (the left side of Eq. 8).
func (s RewardScheme) MaxTotalPayout(totalRequired int) float64 {
	return float64(totalRequired) * s.MaxReward()
}

// R0FromBudget derives the level-1 reward from the platform budget via
// Eq. 9:
//
//	r0 = B / (Sigma phi_i) - lambda*(N - 1)
//
// which guarantees the worst-case payout never exceeds B. Budget and lambda
// must be finite. It returns ErrBudgetTooSmall if the derived r0 is not
// positive.
//
// The paper's defaults (B = 1000, 20 tasks x 20 measurements, lambda = 0.5,
// N = 5) give r0 = 1000/400 - 0.5*4 = 0.5.
func R0FromBudget(budget float64, totalRequired int, lambda float64, levels demand.LevelMapper) (float64, error) {
	if err := levels.Validate(); err != nil {
		return 0, err
	}
	if totalRequired <= 0 {
		return 0, fmt.Errorf("%w: total required measurements %d", ErrBadScheme, totalRequired)
	}
	if !(budget > 0) || math.IsInf(budget, 1) {
		return 0, fmt.Errorf("%w: budget %v", ErrBadScheme, budget)
	}
	if !(lambda >= 0) || math.IsInf(lambda, 1) {
		return 0, fmt.Errorf("%w: lambda %v", ErrBadScheme, lambda)
	}
	r0 := budget/float64(totalRequired) - lambda*float64(levels.N-1)
	if r0 <= 0 {
		return 0, fmt.Errorf("%w: budget %v, required %d, lambda %v, levels %d yield r0 = %v",
			ErrBudgetTooSmall, budget, totalRequired, lambda, levels.N, r0)
	}
	return r0, nil
}

// SchemeFromBudget builds a complete RewardScheme from the platform budget
// via R0FromBudget.
func SchemeFromBudget(budget float64, totalRequired int, lambda float64, levels demand.LevelMapper) (RewardScheme, error) {
	r0, err := R0FromBudget(budget, totalRequired, lambda, levels)
	if err != nil {
		return RewardScheme{}, err
	}
	return RewardScheme{R0: r0, Lambda: lambda, Levels: levels}, nil
}
