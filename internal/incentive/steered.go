package incentive

import (
	"fmt"
	"math"

	"paydemand/internal/task"
)

// Steered is the steered crowdsensing mechanism of Kawajiri, Shimosaka and
// Kashima (UbiComp 2014) as described by the paper's Eq. 13:
//
//	R_ti^k = Rc + mu * DeltaQ(x)
//
// where x is the number of measurements the task has received and
// DeltaQ(x) = Q(x+1) - Q(x) is the expected quality improvement of the
// next measurement. With the standard coverage-style quality
// Q(x) = 1 - (1-delta)^x this gives DeltaQ(x) = delta*(1-delta)^x, so the
// reward decays geometrically from Rc + mu*delta toward Rc as measurements
// arrive. The paper's constants (Rc = 5, mu = 100, delta = 0.2) put the
// reward in [5, 25], matching the range quoted in Section VI.
type Steered struct {
	// Rc is the constant base reward paid regardless of quality.
	Rc float64
	// Mu scales the expected quality improvement.
	Mu float64
	// Delta is the per-measurement quality gain rate in (0, 1).
	Delta float64
}

var _ Mechanism = (*Steered)(nil)

// Paper constants for the steered mechanism (Section VI).
const (
	DefaultSteeredRc    = 5.0
	DefaultSteeredMu    = 100.0
	DefaultSteeredDelta = 0.2
)

// NewSteered constructs the mechanism with the paper's constants.
func NewSteered() *Steered {
	return &Steered{Rc: DefaultSteeredRc, Mu: DefaultSteeredMu, Delta: DefaultSteeredDelta}
}

// NewBudgetScaledSteered constructs a steered mechanism whose reward range
// is scaled to top out at maxReward while preserving the paper's 1:5
// base-to-peak ratio (Rc = maxReward/5, mu*delta = maxReward - Rc).
//
// The paper quotes Eq. 13's constants as giving rewards in [5, 25], yet its
// Fig. 9(b) plots steered's average reward per measurement near 2.3 $ — on
// the same scale as the budget-derived on-demand rewards. The comparison
// figures are therefore run with steered scaled to the same budget as the
// other mechanisms; this constructor produces that variant (see DESIGN.md,
// "Substitutions").
func NewBudgetScaledSteered(maxReward float64) (*Steered, error) {
	if maxReward <= 0 {
		return nil, fmt.Errorf("incentive: steered max reward %v, want > 0", maxReward)
	}
	rc := maxReward / (DefaultSteeredRc + DefaultSteeredMu*DefaultSteeredDelta) * DefaultSteeredRc
	m := &Steered{
		Rc:    rc,
		Mu:    (maxReward - rc) / DefaultSteeredDelta,
		Delta: DefaultSteeredDelta,
	}
	return m, m.Validate()
}

// Validate checks the parameters.
func (m *Steered) Validate() error {
	if m.Rc < 0 {
		return fmt.Errorf("incentive: steered: Rc = %v, want >= 0", m.Rc)
	}
	if m.Mu < 0 {
		return fmt.Errorf("incentive: steered: mu = %v, want >= 0", m.Mu)
	}
	if m.Delta <= 0 || m.Delta >= 1 {
		return fmt.Errorf("incentive: steered: delta = %v, want in (0, 1)", m.Delta)
	}
	return nil
}

// Name implements Mechanism.
func (m *Steered) Name() string { return "steered" }

// Quality returns Q(x) = 1 - (1-delta)^x, the expected quality of a task
// after x measurements.
func (m *Steered) Quality(x int) float64 {
	if x < 0 {
		x = 0
	}
	return 1 - math.Pow(1-m.Delta, float64(x))
}

// RewardAt returns the reward offered for the (x+1)th measurement.
func (m *Steered) RewardAt(x int) float64 {
	if x < 0 {
		x = 0
	}
	return m.Rc + m.Mu*(m.Quality(x+1)-m.Quality(x))
}

// RewardsInto implements Mechanism.
func (m *Steered) RewardsInto(in *RoundInput, out map[task.ID]float64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for _, v := range in.Views {
		out[v.ID] = m.RewardAt(v.Received)
	}
	return nil
}
