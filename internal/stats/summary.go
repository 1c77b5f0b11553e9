package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, matching
// the paper's "variance of measurements" metric), or 0 for fewer than one
// element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (dividing by n-1),
// or 0 for fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the common "type 7" estimator).
// It returns 0 for an empty slice and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Boxplot is a five-number summary plus whisker bounds, matching what the
// paper's Fig. 5(b) boxplot displays.
type Boxplot struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// WhiskerLo and WhiskerHi are the most extreme data points within 1.5
	// IQR of the quartiles (Tukey whiskers).
	WhiskerLo float64 `json:"whisker_lo"`
	WhiskerHi float64 `json:"whisker_hi"`
	// Outliers are points beyond the whiskers, sorted ascending.
	Outliers []float64 `json:"outliers,omitempty"`
	// N is the sample size.
	N int `json:"n"`
}

// NewBoxplot computes the five-number summary of xs. An empty input yields
// a zero Boxplot.
func NewBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	b := Boxplot{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo = b.Max
	b.WhiskerHi = b.Min
	for _, x := range sorted {
		if x >= loFence && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hiFence && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b
}

// Gini returns the Gini coefficient of the non-negative values xs: 0 for
// perfect equality, approaching 1 as one element holds everything. It is
// the natural summary of the paper's "participation balance" theme —
// applied to per-task measurement counts or per-user profits. Inputs with
// fewer than two elements, a non-positive sum, or any negative value
// yield 0.
func Gini(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0
	}
	var sum, weighted float64
	for i, x := range sorted {
		sum += x
		weighted += float64(i+1) * x
	}
	if sum <= 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*sum) / (n * sum)
}

// Running accumulates count/mean/variance online (Welford's algorithm) so
// experiment loops can aggregate without retaining every observation.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the running population variance.
func (r *Running) Variance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}
