package incentive

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/task"
)

// IncentMe prices tasks against predicted — not observed — user supply,
// in the style of IncentMe-like mobility-aware incentive systems: a task
// that looks well-covered today but whose neighborhood is forecast to
// drain before its deadline is priced up now, while a task that mobility
// will serve anyway stays cheap.
//
// Per view, with h = max(1, Deadline - Round) rounds to the deadline:
//
//	supply   = Mobility.ExpectedNeighbors(Neighbors, h)
//	scarcity = max(0, Required - Received) / (supply + 1)
//
// Scarcities are max-normalized over the round's views (in view order) and
// mapped through the reward scheme's demand-level rule, so IncentMe reuses
// the paper's level ladder with a forecast-driven demand signal.
type IncentMe struct {
	scheme RewardScheme

	// scarcity is grow-only scratch; reused across rounds.
	scarcity []float64
}

var _ Mechanism = (*IncentMe)(nil)

// NewIncentMe constructs the mechanism. scheme supplies the
// level-to-reward rule; the mobility forecast arrives per round through
// RoundInput.
func NewIncentMe(scheme RewardScheme) (*IncentMe, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	return &IncentMe{scheme: scheme}, nil
}

// Name implements Mechanism.
func (m *IncentMe) Name() string { return "incentme" }

// RewardsInto implements Mechanism.
func (m *IncentMe) RewardsInto(in *RoundInput, out map[task.ID]float64) error {
	if in.Mobility == nil {
		return errors.New("incentive: incentme: RoundInput.Mobility is nil, want a mobility forecast")
	}
	m.scarcity = m.scarcity[:0]
	maxScarcity := 0.0
	for _, v := range in.Views {
		h := v.Deadline - in.Round
		if h < 1 {
			h = 1
		}
		supply := in.Mobility.ExpectedNeighbors(v.Neighbors, h)
		if supply < 0 || math.IsNaN(supply) || math.IsInf(supply, 0) {
			return fmt.Errorf("incentive: incentme: forecast %s returned %v expected neighbors for task %d, want finite >= 0",
				in.Mobility.Name(), supply, v.ID)
		}
		remaining := v.Required - v.Received
		if remaining < 0 {
			remaining = 0
		}
		s := float64(remaining) / (supply + 1)
		m.scarcity = append(m.scarcity, s)
		if s > maxScarcity {
			maxScarcity = s
		}
	}
	for i, v := range in.Views {
		norm := 0.0
		if maxScarcity > 0 {
			norm = m.scarcity[i] / maxScarcity
		}
		out[v.ID] = m.scheme.RewardForDemand(norm)
	}
	return nil
}
