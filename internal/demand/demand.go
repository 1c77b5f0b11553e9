// Package demand implements the paper's demand indicator (Section IV): the
// per-task, per-round demand that drives the on-demand reward updates.
//
// The demand of task i at round k combines three factors (Eq. 2):
//
//	d_i^k = w1*X_i1^k + w2*X_i2^k + w3*X_i3^k
//
// where X_i1 grows as the deadline approaches (Eq. 3), X_i2 shrinks as the
// completing progress grows (Eq. 4), and X_i3 shrinks with the number of
// neighboring mobile users (Eq. 5). The weights come from an AHP pairwise
// comparison of the three criteria. Raw demands are normalized to [0, 1]
// by d / (lambda_max * ln 2) and mapped onto N discrete demand levels
// (Table III) that the incentive mechanism converts to rewards.
package demand

import (
	"errors"
	"fmt"
	"math"
)

// Ln2 is the natural log of 2, the upper bound of each ln(1+x) factor for
// x in [0, 1].
var ln2 = math.Ln2

// Common errors.
var (
	ErrBadWeights = errors.New("demand: weights must be three non-negative values summing to 1")
	ErrBadLambda  = errors.New("demand: lambda coefficients must be positive")
	ErrBadInputs  = errors.New("demand: invalid factor inputs")
)

// weightTol is the tolerance on the weights-sum-to-one check.
const weightTol = 1e-9

// Config holds the demand-indicator parameters.
type Config struct {
	// Weights are (w1, w2, w3) for the deadline, progress and neighbor
	// factors; they must be non-negative and sum to 1. Derive them with an
	// ahp.PairwiseMatrix (the paper's example yields 0.648/0.230/0.122).
	Weights [3]float64 `json:"weights"`
	// Lambda1, Lambda2, Lambda3 scale the three factors (the paper's
	// lambda coefficients). They must be positive; the paper leaves their
	// values open and the normalization divides the largest back out, so
	// 1.0 each is the natural default.
	Lambda1 float64 `json:"lambda1"`
	Lambda2 float64 `json:"lambda2"`
	Lambda3 float64 `json:"lambda3"`
}

// DefaultConfig returns the paper-example configuration: AHP weights
// (0.648, 0.230, 0.122) from Table II and unit lambda coefficients.
func DefaultConfig() Config {
	return Config{
		Weights: [3]float64{0.648, 0.230, 0.122},
		Lambda1: 1, Lambda2: 1, Lambda3: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	sum := 0.0
	for _, w := range c.Weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("%w: got %v", ErrBadWeights, c.Weights)
		}
		sum += w
	}
	if math.Abs(sum-1) > weightTol {
		return fmt.Errorf("%w: sum = %v", ErrBadWeights, sum)
	}
	for _, l := range [3]float64{c.Lambda1, c.Lambda2, c.Lambda3} {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("%w: got (%v, %v, %v)", ErrBadLambda, c.Lambda1, c.Lambda2, c.Lambda3)
		}
	}
	return nil
}

// LambdaMax returns max(lambda1, lambda2, lambda3), the normalization scale
// of Section IV-C.
func (c Config) LambdaMax() float64 {
	return math.Max(c.Lambda1, math.Max(c.Lambda2, c.Lambda3))
}

// DeadlineFactor computes X_i1^k = lambda1 * ln(1 + 1/(tau - (k-1)))
// (Eq. 3). round is the current round k and deadline is tau. The factor
// grows, at a growing rate, as k approaches tau, and is bounded by
// lambda1*ln(2) (reached in the deadline round, when tau-(k-1) = 1).
//
// For robustness the remaining-rounds term is clamped below at 1: a task
// past its deadline (which the platform never publishes) would otherwise
// produce an undefined demand.
func (c Config) DeadlineFactor(deadline, round int) float64 {
	remaining := deadline - (round - 1)
	if remaining < 1 {
		remaining = 1
	}
	return c.Lambda1 * math.Log(1+1/float64(remaining))
}

// ProgressFactor computes X_i2^k = lambda2 * ln(1 + (1 - pi/phi)) (Eq. 4).
// progress is pi/phi and must lie in [0, 1]; demand shrinks as progress
// grows, hitting 0 at full progress and lambda2*ln(2) at zero progress.
func (c Config) ProgressFactor(progress float64) (float64, error) {
	if progress < 0 || progress > 1 || math.IsNaN(progress) {
		return 0, fmt.Errorf("%w: progress %v outside [0, 1]", ErrBadInputs, progress)
	}
	return c.Lambda2 * math.Log(1+(1-progress)), nil
}

// NeighborFactor computes X_i3^k = lambda3 * ln(1 + (1 - N_i/N_max))
// (Eq. 5). neighbors is N_i and maxNeighbors is N_max over all tasks this
// round. Fewer neighbors means higher demand, bounded by lambda3*ln(2).
//
// When no task has any neighboring user (maxNeighbors == 0) every task is
// equally starved; the factor is defined as its maximum lambda3*ln(2).
func (c Config) NeighborFactor(neighbors, maxNeighbors int) (float64, error) {
	if neighbors < 0 || maxNeighbors < 0 {
		return 0, fmt.Errorf("%w: negative neighbor count (%d, %d)", ErrBadInputs, neighbors, maxNeighbors)
	}
	if neighbors > maxNeighbors {
		return 0, fmt.Errorf("%w: neighbors %d > max %d", ErrBadInputs, neighbors, maxNeighbors)
	}
	if maxNeighbors == 0 {
		return c.Lambda3 * ln2, nil
	}
	ratio := float64(neighbors) / float64(maxNeighbors)
	return c.Lambda3 * math.Log(1+(1-ratio)), nil
}

// Inputs are the per-task observations the platform has at the end of a
// round, from which the next round's demand is computed.
type Inputs struct {
	// Deadline is the task's deadline round tau_i.
	Deadline int `json:"deadline"`
	// Progress is the completing progress pi_i/phi_i in [0, 1].
	Progress float64 `json:"progress"`
	// Neighbors is the number of mobile users within radius R of the task.
	Neighbors int `json:"neighbors"`
}

// Demand computes the raw demand d_i^k (Eq. 2) of one task at the given
// round, given the maximum neighbor count over all tasks this round.
func (c Config) Demand(round int, in Inputs, maxNeighbors int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return c.demand(round, in, maxNeighbors)
}

// demand is Demand over a configuration the caller has validated.
func (c Config) demand(round int, in Inputs, maxNeighbors int) (float64, error) {
	x1 := c.DeadlineFactor(in.Deadline, round)
	x2, err := c.ProgressFactor(in.Progress)
	if err != nil {
		return 0, err
	}
	x3, err := c.NeighborFactor(in.Neighbors, maxNeighbors)
	if err != nil {
		return 0, err
	}
	return c.Weights[0]*x1 + c.Weights[1]*x2 + c.Weights[2]*x3, nil
}

// Demands computes the raw demands of all tasks at the given round. The
// maximum neighbor count N_max is taken over the provided inputs, as in
// Eq. 5.
func (c Config) Demands(round int, inputs []Inputs) ([]float64, error) {
	return c.DemandsInto(round, inputs, make([]float64, 0, len(inputs)))
}

// DemandsInto is the recycled-scratch form of Demands: it truncates out,
// appends one raw demand per input, and returns the (possibly regrown)
// slice. A call whose out already has capacity allocates nothing.
func (c Config) DemandsInto(round int, inputs []Inputs, out []float64) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	maxNeighbors := 0
	for _, in := range inputs {
		if in.Neighbors > maxNeighbors {
			maxNeighbors = in.Neighbors
		}
	}
	out = out[:0]
	for i, in := range inputs {
		d, err := c.demand(round, in, maxNeighbors)
		if err != nil {
			return nil, fmt.Errorf("demand: task %d: %w", i, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// Normalize maps a raw demand onto [0, 1] by dividing by lambda_max*ln(2),
// the upper bound established in Section IV-C, clamping tiny floating-point
// overshoot.
func (c Config) Normalize(d float64) float64 {
	n := d / (c.LambdaMax() * ln2)
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// NormalizedDemands computes Demands and normalizes each entry.
func (c Config) NormalizedDemands(round int, inputs []Inputs) ([]float64, error) {
	ds, err := c.Demands(round, inputs)
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		ds[i] = c.Normalize(d)
	}
	return ds, nil
}

// NormalizedDemandsInto is the recycled-scratch form of NormalizedDemands,
// with DemandsInto's reuse contract.
func (c Config) NormalizedDemandsInto(round int, inputs []Inputs, out []float64) ([]float64, error) {
	ds, err := c.DemandsInto(round, inputs, out)
	if err != nil {
		return nil, err
	}
	for i, d := range ds {
		ds[i] = c.Normalize(d)
	}
	return ds, nil
}
