// Package ahp implements the part of the Analytic Hierarchy Process
// (Saaty, 1980) the demand-based dynamic incentive mechanism uses: a
// validated 3×3 pairwise comparison matrix over the three demand criteria
// of Eq. 2 (deadline, completing progress, neighboring mobile users), the
// column-normalized row-mean weights of Eq. 6 (Tables I and II of the
// paper), and the consistency ratio of those judgments.
package ahp

import (
	"errors"
	"fmt"
	"math"
)

// MaxScale is the largest legal Saaty judgment. Entries must lie in
// [1/MaxScale, MaxScale].
const MaxScale = 9.0

// Common errors returned by this package.
var (
	ErrNotReciprocal = errors.New("ahp: matrix is not reciprocal")
	ErrNotPositive   = errors.New("ahp: matrix entries must be positive")
	ErrBadScale      = errors.New("ahp: judgment outside the 1/9..9 Saaty scale")
)

// reciprocalTol is the tolerance used when checking a[i][j]*a[j][i] == 1.
const reciprocalTol = 1e-9

// PairwiseMatrix is a validated positive reciprocal pairwise comparison
// matrix A over the three demand criteria, where A[i][j] expresses how much
// more important criterion i is than criterion j.
//
// Construct with NewPairwiseMatrix; the zero value is not usable.
type PairwiseMatrix struct {
	a [3][3]float64
}

// NewPairwiseMatrix validates a as a positive reciprocal comparison matrix
// and wraps it. Diagonal entries must be 1 and a[i][j]*a[j][i] must equal 1
// within a small tolerance. Entries must lie on the extended Saaty scale
// [1/9, 9].
func NewPairwiseMatrix(a [3][3]float64) (*PairwiseMatrix, error) {
	for i := range a {
		for j, v := range a[i] {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: a[%d][%d] = %v", ErrNotPositive, i, j, v)
			}
			if v < 1/MaxScale-reciprocalTol || v > MaxScale+reciprocalTol {
				return nil, fmt.Errorf("%w: a[%d][%d] = %v", ErrBadScale, i, j, v)
			}
		}
	}
	for i := range a {
		if math.Abs(a[i][i]-1) > reciprocalTol {
			return nil, fmt.Errorf("%w: diagonal a[%d][%d] = %v", ErrNotReciprocal, i, i, a[i][i])
		}
		for j := i + 1; j < len(a); j++ {
			if math.Abs(a[i][j]*a[j][i]-1) > reciprocalTol {
				return nil, fmt.Errorf("%w: a[%d][%d]*a[%d][%d] = %v",
					ErrNotReciprocal, i, j, j, i, a[i][j]*a[j][i])
			}
		}
	}
	return &PairwiseMatrix{a: a}, nil
}

// PaperExampleMatrix returns the paper's Table I example comparison matrix
// for the three demand criteria (deadline, completing progress, number of
// neighboring mobile users):
//
//	     C1   C2   C3
//	C1 [  1    3    5 ]
//	C2 [ 1/3   1    2 ]
//	C3 [ 1/5  1/2   1 ]
func PaperExampleMatrix() *PairwiseMatrix {
	pm, err := NewPairwiseMatrix([3][3]float64{
		{1, 3, 5},
		{1.0 / 3, 1, 2},
		{1.0 / 5, 1.0 / 2, 1},
	})
	if err != nil {
		// The literal above is a valid reciprocal matrix; failure here is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("ahp: paper example matrix invalid: %v", err))
	}
	return pm
}

// At returns the judgment a[i][j].
func (p *PairwiseMatrix) At(i, j int) float64 { return p.a[i][j] }

// Rows returns a copy of the judgments (Table I of the paper).
func (p *PairwiseMatrix) Rows() [3][3]float64 { return p.a }

// Normalized returns the column-normalized comparison matrix (Table II of
// the paper): each entry divided by its column sum. Column sums of a
// validated matrix are strictly positive.
func (p *PairwiseMatrix) Normalized() [3][3]float64 {
	var sums [3]float64
	for i := range p.a {
		for j, v := range p.a[i] {
			sums[j] += v
		}
	}
	var out [3][3]float64
	for i := range p.a {
		for j, v := range p.a[i] {
			out[i][j] = v / sums[j]
		}
	}
	return out
}

// PaperWeights derives the priority vector exactly as the paper does
// (Eq. 6): column-normalize, then average each row. The result is positive
// and sums to 1.
func (p *PairwiseMatrix) PaperWeights() [3]float64 {
	var w [3]float64
	for i, row := range p.Normalized() {
		var s float64
		for _, v := range row {
			s += v
		}
		w[i] = s / 3
	}
	return w
}

// randomIndex3 is Saaty's random consistency index RI(3): the mean
// consistency index of randomly generated 3×3 reciprocal matrices.
const randomIndex3 = 0.58

// DefaultCRThreshold is the conventional acceptance threshold for the
// consistency ratio: judgments with CR <= 0.1 are considered consistent.
const DefaultCRThreshold = 0.1

// Consistency summarizes how self-consistent a judgment matrix is.
type Consistency struct {
	// LambdaMax is the dominant eigenvalue of the comparison matrix. For a
	// perfectly consistent matrix LambdaMax == 3.
	LambdaMax float64 `json:"lambda_max"`
	// Index is the consistency index CI = (LambdaMax - 3) / 2.
	Index float64 `json:"index"`
	// Ratio is the consistency ratio CR = CI / RI(3).
	Ratio float64 `json:"ratio"`
}

// Acceptable reports whether the consistency ratio is within the
// conventional 0.1 threshold.
func (c Consistency) Acceptable() bool { return c.Ratio <= DefaultCRThreshold }

// Consistency computes the consistency statistics of the judgment matrix.
// LambdaMax comes from power iteration: for a positive reciprocal matrix
// the Perron-Frobenius theorem guarantees a unique dominant positive
// eigenpair, and with the iterate normalized to sum 1 the sum of A*v
// estimates the dominant eigenvalue.
func (p *PairwiseMatrix) Consistency() (Consistency, error) {
	const (
		maxIter = 1000
		tol     = 1e-12
	)
	v := [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	prev := math.NaN()
	for iter := 0; iter < maxIter; iter++ {
		var w [3]float64
		for i, row := range p.a {
			var s float64
			for j, a := range row {
				s += a * v[j]
			}
			w[i] = s
		}
		lambda := 0.0
		for _, x := range w {
			lambda += x
		}
		for i := range w {
			v[i] = w[i] / lambda
		}
		if !math.IsNaN(prev) && math.Abs(lambda-prev) <= tol*math.Max(1, math.Abs(lambda)) {
			ci := (lambda - 3) / 2
			return Consistency{LambdaMax: lambda, Index: ci, Ratio: ci / randomIndex3}, nil
		}
		prev = lambda
	}
	return Consistency{}, fmt.Errorf("ahp: consistency: power iteration did not converge after %d iterations", maxIter)
}
