package incentive

import (
	"errors"

	"paydemand/internal/task"
)

// Fixed is the baseline fixed incentive mechanism of Section VI: each task
// draws a uniform random demand level when first seen, is priced by Eq. 7,
// and its reward never changes in later rounds.
type Fixed struct {
	scheme RewardScheme
	levels map[task.ID]int
}

var _ Mechanism = (*Fixed)(nil)

// NewFixed constructs the mechanism. The one-time random level draw per
// task comes from the RoundInput's RNG, so the same seeded stream prices
// identically wherever the mechanism runs.
func NewFixed(scheme RewardScheme) (*Fixed, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return &Fixed{
		scheme: scheme,
		levels: make(map[task.ID]int),
	}, nil
}

// Name implements Mechanism.
func (m *Fixed) Name() string { return "fixed" }

// RewardsInto implements Mechanism. The first time a task is seen it draws
// a uniform level in [1, N] from in.RNG; afterwards the memoized level is
// reused, so the reward is constant across rounds. Draws happen in view
// order — the stream consumption is part of the byte-identity contract.
func (m *Fixed) RewardsInto(in *RoundInput, out map[task.ID]float64) error {
	if in.RNG == nil {
		return errors.New("incentive: fixed: RoundInput.RNG is nil, want the seeded stream for the level draws")
	}
	for _, v := range in.Views {
		lvl, ok := m.levels[v.ID]
		if !ok {
			lvl = in.RNG.IntBetween(1, m.scheme.Levels.N)
			m.levels[v.ID] = lvl
		}
		out[v.ID] = m.scheme.Reward(lvl)
	}
	return nil
}
