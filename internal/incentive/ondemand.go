package incentive

import (
	"fmt"

	"paydemand/internal/demand"
	"paydemand/internal/task"
)

// OnDemand is the paper's demand-based dynamic incentive mechanism
// (Section IV). At each round it computes every open task's demand
// indicator from the deadline, completing progress, and neighboring-user
// factors, weighs them with AHP-derived weights, normalizes, maps the
// result to a demand level, and prices the task by Eq. 7.
type OnDemand struct {
	demandCfg demand.Config
	scheme    RewardScheme

	// Grow-only scratch for the hot path; reused across rounds and sized
	// to the first round's views, the most a simulated trial prices.
	inputs []demand.Inputs
	norm   []float64
}

var _ Mechanism = (*OnDemand)(nil)

// NewOnDemand constructs the mechanism. demandCfg supplies the factor
// weights and scales; scheme supplies the level-to-reward rule.
func NewOnDemand(demandCfg demand.Config, scheme RewardScheme) (*OnDemand, error) {
	if err := demandCfg.Validate(); err != nil {
		return nil, fmt.Errorf("incentive: on-demand: %w", err)
	}
	if err := scheme.Validate(); err != nil {
		return nil, fmt.Errorf("incentive: on-demand: %w", err)
	}
	return &OnDemand{demandCfg: demandCfg, scheme: scheme}, nil
}

// Name implements Mechanism.
func (m *OnDemand) Name() string { return "on-demand" }

// RewardsInto implements Mechanism. It evaluates Eqs. 2-7 for every view,
// reusing the mechanism's scratch so steady-state calls allocate nothing.
func (m *OnDemand) RewardsInto(in *RoundInput, out map[task.ID]float64) error {
	if m.inputs == nil {
		m.inputs = make([]demand.Inputs, 0, len(in.Views))
		m.norm = make([]float64, 0, len(in.Views))
	}
	m.inputs = m.inputs[:0]
	for _, v := range in.Views {
		m.inputs = append(m.inputs, demand.Inputs{
			Deadline:  v.Deadline,
			Progress:  v.Progress(),
			Neighbors: v.Neighbors,
		})
	}
	norm, err := m.demandCfg.NormalizedDemandsInto(in.Round, m.inputs, m.norm)
	if err != nil {
		return fmt.Errorf("incentive: on-demand round %d: %w", in.Round, err)
	}
	m.norm = norm
	for i, v := range in.Views {
		out[v.ID] = m.scheme.RewardForDemand(norm[i])
	}
	return nil
}
