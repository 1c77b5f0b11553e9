package aggregate

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"paydemand/internal/stats"
)

func TestAggregateRobustMeanRejectsOutliers(t *testing.T) {
	// A tight cluster plus one wild outlier: the robust mean ignores it,
	// the plain mean does not.
	values := []float64{50, 51, 49, 50.5, 49.5, 500}
	robust, err := Robust(values)
	if err != nil {
		t.Fatal(err)
	}
	if robust.Rejected != 1 {
		t.Errorf("robust rejected = %d, want 1", robust.Rejected)
	}
	if math.Abs(robust.Value-50) > 1 {
		t.Errorf("robust value = %v, want ~50", robust.Value)
	}
	if plain := stats.Mean(values); plain < 100 {
		t.Errorf("plain mean unexpectedly robust: %v", plain)
	}
}

func TestAggregateRobustMeanZeroMAD(t *testing.T) {
	// More than half the readings identical: MAD = 0, only exact median
	// matches survive.
	values := []float64{7, 7, 7, 7, 9}
	est, err := Robust(values)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 7 || est.N != 4 || est.Rejected != 1 {
		t.Errorf("zero-MAD estimate = %+v", est)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Robust(nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Robust([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Robust([]float64{math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestMarginOfError(t *testing.T) {
	est, err := Robust([]float64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	// Both readings survive; stddev of {10,12} = sqrt(2), MoE =
	// 1.96*sqrt(2)/sqrt(2) = 1.96.
	if est.N != 2 || math.Abs(est.MarginOfError-1.96) > 1e-9 {
		t.Errorf("estimate = %+v, want N 2 and MoE 1.96", est)
	}
	single, err := Robust([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if single.MarginOfError != 0 {
		t.Errorf("single-sample MoE = %v", single.MarginOfError)
	}
}

// TestEstimateWithinRangeProperty: the estimate lies within [min, max] of
// the input, and every reading is either used or rejected.
func TestEstimateWithinRangeProperty(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		n := rng.IntBetween(1, 30)
		values := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range values {
			values[i] = rng.Uniform(-100, 100)
			lo = math.Min(lo, values[i])
			hi = math.Max(hi, values[i])
		}
		est, err := Robust(values)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value < lo-1e-9 || est.Value > hi+1e-9 {
			t.Fatalf("estimate %v outside data range [%v, %v]", est.Value, lo, hi)
		}
		if est.N+est.Rejected != n {
			t.Fatalf("N %d + rejected %d != %d", est.N, est.Rejected, n)
		}
	}
}

// TestRobustBreakdownProperty: with fewer than half the points corrupted
// far away, the robust mean stays near the clean cluster.
func TestRobustBreakdownProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		clean := rng.IntBetween(6, 20)
		corrupt := rng.IntBetween(1, (clean-1)/2)
		values := make([]float64, 0, clean+corrupt)
		for i := 0; i < clean; i++ {
			values = append(values, 100+rng.NormFloat64())
		}
		for i := 0; i < corrupt; i++ {
			values = append(values, 100000+rng.Uniform(0, 1000))
		}
		est, err := Robust(values)
		if err != nil {
			return false
		}
		return math.Abs(est.Value-100) < 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
