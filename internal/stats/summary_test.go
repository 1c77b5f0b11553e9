package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant variance = %v", got)
	}
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); got != 1.25 {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v", got)
	}
}

func TestSampleVariance(t *testing.T) {
	// Sample variance of {1,2,3,4} is 5/3.
	if got := SampleVariance([]float64{1, 2, 3, 4}); math.Abs(got-5.0/3) > 1e-12 {
		t.Errorf("SampleVariance = %v, want 5/3", got)
	}
	if got := SampleVariance([]float64{7}); got != 0 {
		t.Errorf("SampleVariance single = %v", got)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{1, 9, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := NewBoxplot(xs)
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Errorf("Boxplot basic fields: %+v", b)
	}
	if b.Median != 5.5 {
		t.Errorf("Median = %v, want 5.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHi != 9 {
		t.Errorf("WhiskerHi = %v, want 9", b.WhiskerHi)
	}
	if b.WhiskerLo != 1 {
		t.Errorf("WhiskerLo = %v, want 1", b.WhiskerLo)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	b := NewBoxplot(nil)
	if b.N != 0 || b.Median != 0 {
		t.Errorf("empty boxplot = %+v", b)
	}
}

func TestBoxplotOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		b := NewBoxplot(xs)
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			t.Fatalf("five-number summary out of order: %+v", b)
		}
		if b.WhiskerLo > b.Q1 || b.WhiskerHi < b.Q3 {
			t.Fatalf("whiskers inside box: %+v", b)
		}
	}
}

func TestGini(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"perfect equality", []float64{3, 3, 3, 3}, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"negative present", []float64{-1, 2}, 0},
		// Two values {0, 1}: Gini = 0.5.
		{"max two-way inequality", []float64{0, 1}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Gini(tt.xs); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Gini = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGiniKnownValue(t *testing.T) {
	// {1, 2, 3, 4}: Gini = (2*(1*1+2*2+3*3+4*4) - 5*10) / (4*10) = 0.25.
	if got := Gini([]float64{4, 1, 3, 2}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Gini = %v, want 0.25", got)
	}
}

func TestGiniBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		g := Gini(xs)
		if g < 0 || g >= 1 {
			t.Fatalf("Gini = %v out of [0, 1)", g)
		}
	}
}

func TestGiniDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Gini(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("Gini mutated input")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 500)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		r.Add(xs[i])
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("running mean %v != batch %v", r.Mean(), Mean(xs))
	}
	if math.Abs(r.Variance()-Variance(xs)) > 1e-9 {
		t.Errorf("running variance %v != batch %v", r.Variance(), Variance(xs))
	}
}

func TestRunningZeroValue(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Error("zero Running not zeroed")
	}
}
