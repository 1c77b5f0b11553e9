// Package aggregate implements the platform-side estimation step of the
// paper's Section III-A: after collecting multiple independent
// measurements for a task, the platform aggregates them into a single
// estimate. Since crowd sensors are heterogeneous and occasionally faulty,
// the estimate is a robust mean (MAD-based outlier rejection, then the
// mean of the survivors), reported with a confidence interval.
package aggregate

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/stats"
)

// ErrNoData is returned when Robust receives no measurements.
var ErrNoData = errors.New("aggregate: no measurements")

// madThreshold is the rejection threshold in scaled MAD units.
const madThreshold = 3

// Estimate is an aggregated task value.
type Estimate struct {
	// Value is the aggregated estimate.
	Value float64 `json:"value"`
	// N is the number of measurements used (after rejection).
	N int `json:"n"`
	// Rejected is the number of measurements discarded as outliers.
	Rejected int `json:"rejected"`
	// StdDev is the sample standard deviation of the used measurements.
	StdDev float64 `json:"std_dev"`
	// MarginOfError is the half-width of a ~95% normal-approximation
	// confidence interval (1.96 * stddev / sqrt(n)); zero when n < 2.
	MarginOfError float64 `json:"margin_of_error"`
}

// Robust rejects the measurements more than three scaled median absolute
// deviations from the median and averages the survivors.
func Robust(values []float64) (Estimate, error) {
	if len(values) == 0 {
		return Estimate{}, ErrNoData
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Estimate{}, fmt.Errorf("aggregate: measurement %d is %v", i, v)
		}
	}
	kept := rejectByMAD(values)
	est := Estimate{
		Value:    stats.Mean(kept),
		N:        len(kept),
		Rejected: len(values) - len(kept),
		StdDev:   math.Sqrt(stats.SampleVariance(kept)),
	}
	if est.N >= 2 {
		est.MarginOfError = 1.96 * est.StdDev / math.Sqrt(float64(est.N))
	}
	return est, nil
}

// rejectByMAD keeps readings within madThreshold scaled-MADs of the median.
// The scale factor 1.4826 makes the MAD a consistent estimator of the
// standard deviation under normality. If the MAD is zero (over half the
// readings identical) only exact matches of the median are kept.
func rejectByMAD(values []float64) []float64 {
	med := stats.Median(values)
	devs := make([]float64, len(values))
	for i, v := range values {
		devs[i] = math.Abs(v - med)
	}
	mad := stats.Median(devs) * 1.4826
	var kept []float64
	for _, v := range values {
		if mad == 0 {
			if v == med {
				kept = append(kept, v)
			}
			continue
		}
		if math.Abs(v-med) <= madThreshold*mad {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		// Never averages an empty set: fall back to the median alone.
		kept = []float64{med}
	}
	return kept
}
