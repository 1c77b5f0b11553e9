package incentive

import (
	"fmt"

	"paydemand/internal/ahp"
	"paydemand/internal/demand"
)

// NewOnDemandFromAHP builds the on-demand mechanism with criteria weights
// derived from an AHP pairwise comparison matrix over the three demand
// criteria (deadline, progress, neighbors), using the paper's
// column-normalized row-mean method (Eq. 6).
func NewOnDemandFromAHP(pm *ahp.PairwiseMatrix, lambdas [3]float64, scheme RewardScheme) (*OnDemand, error) {
	cfg := demand.Config{
		Weights: pm.PaperWeights(),
		Lambda1: lambdas[0], Lambda2: lambdas[1], Lambda3: lambdas[2],
	}
	return NewOnDemand(cfg, scheme)
}

// NewPaperOnDemand builds the on-demand mechanism exactly as the paper's
// evaluation configures it: Table I's AHP matrix and unit lambda scales.
func NewPaperOnDemand(scheme RewardScheme) (*OnDemand, error) {
	return NewOnDemandFromAHP(ahp.PaperExampleMatrix(), [3]float64{1, 1, 1}, scheme)
}

// NewEqualWeightsOnDemand is the no-AHP ablation: the three demand factors
// are weighted equally instead of by the AHP-derived priorities.
func NewEqualWeightsOnDemand(scheme RewardScheme) (*OnDemand, error) {
	cfg := demand.Config{
		Weights: [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		Lambda1: 1, Lambda2: 1, Lambda3: 1,
	}
	return NewOnDemand(cfg, scheme)
}

// SingleFactor identifies one of the three demand criteria for the
// single-factor ablations.
type SingleFactor int

// The three demand criteria.
const (
	FactorDeadline SingleFactor = iota + 1
	FactorProgress
	FactorNeighbors
)

// String implements fmt.Stringer.
func (f SingleFactor) String() string {
	switch f {
	case FactorDeadline:
		return "deadline-only"
	case FactorProgress:
		return "progress-only"
	case FactorNeighbors:
		return "neighbors-only"
	default:
		return fmt.Sprintf("SingleFactor(%d)", int(f))
	}
}

// NewSingleFactorOnDemand is the single-criterion ablation: the demand is
// driven entirely by one factor.
func NewSingleFactorOnDemand(factor SingleFactor, scheme RewardScheme) (*OnDemand, error) {
	var w [3]float64
	switch factor {
	case FactorDeadline:
		w[0] = 1
	case FactorProgress:
		w[1] = 1
	case FactorNeighbors:
		w[2] = 1
	default:
		return nil, fmt.Errorf("incentive: unknown factor %v", factor)
	}
	cfg := demand.Config{Weights: w, Lambda1: 1, Lambda2: 1, Lambda3: 1}
	return NewOnDemand(cfg, scheme)
}
