package demand

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   error
	}{
		{"negative weight", func(c *Config) { c.Weights = [3]float64{-0.1, 0.6, 0.5} }, ErrBadWeights},
		{"weights not summing", func(c *Config) { c.Weights = [3]float64{0.5, 0.5, 0.5} }, ErrBadWeights},
		{"zero lambda", func(c *Config) { c.Lambda2 = 0 }, ErrBadLambda},
		{"negative lambda", func(c *Config) { c.Lambda3 = -1 }, ErrBadLambda},
		{"nan weight", func(c *Config) { c.Weights[0] = math.NaN() }, ErrBadWeights},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig()
			tt.mutate(&c)
			if err := c.Validate(); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestLambdaMax(t *testing.T) {
	c := DefaultConfig()
	c.Lambda1, c.Lambda2, c.Lambda3 = 1, 3, 2
	if got := c.LambdaMax(); got != 3 {
		t.Errorf("LambdaMax = %v, want 3", got)
	}
}

func TestDeadlineFactorEq3(t *testing.T) {
	c := DefaultConfig()
	// At round 1 with deadline 10: ln(1 + 1/10).
	if got, want := c.DeadlineFactor(10, 1), math.Log(1.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("DeadlineFactor(10,1) = %v, want %v", got, want)
	}
	// In the deadline round (k = tau): remaining = 1, factor = ln 2.
	if got := c.DeadlineFactor(10, 10); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("DeadlineFactor at deadline = %v, want ln2", got)
	}
	// Past deadline: clamped to the maximum, never NaN/negative.
	if got := c.DeadlineFactor(10, 12); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("DeadlineFactor past deadline = %v, want ln2", got)
	}
}

func TestDeadlineFactorMonotoneAndConvex(t *testing.T) {
	c := DefaultConfig()
	prev := -1.0
	prevDelta := 0.0
	for k := 1; k <= 10; k++ {
		f := c.DeadlineFactor(10, k)
		if f <= prev {
			t.Fatalf("factor not increasing at k=%d: %v <= %v", k, f, prev)
		}
		if prev >= 0 {
			delta := f - prev
			if k > 2 && delta <= prevDelta {
				t.Fatalf("growth rate not increasing at k=%d", k)
			}
			prevDelta = delta
		}
		prev = f
	}
}

func TestProgressFactorEq4(t *testing.T) {
	c := DefaultConfig()
	got, err := c.ProgressFactor(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("ProgressFactor(0) = %v, want ln2", got)
	}
	got, err = c.ProgressFactor(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("ProgressFactor(1) = %v, want 0", got)
	}
	if _, err := c.ProgressFactor(-0.1); !errors.Is(err, ErrBadInputs) {
		t.Errorf("negative progress err = %v", err)
	}
	if _, err := c.ProgressFactor(1.1); !errors.Is(err, ErrBadInputs) {
		t.Errorf("progress > 1 err = %v", err)
	}
}

func TestProgressFactorDecreasing(t *testing.T) {
	c := DefaultConfig()
	prev := math.Inf(1)
	for p := 0.0; p <= 1.0; p += 0.1 {
		f, err := c.ProgressFactor(p)
		if err != nil {
			t.Fatal(err)
		}
		if f >= prev {
			t.Fatalf("factor not decreasing at progress %v", p)
		}
		prev = f
	}
}

func TestNeighborFactorEq5(t *testing.T) {
	c := DefaultConfig()
	got, err := c.NeighborFactor(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("NeighborFactor(0, 10) = %v, want ln2", got)
	}
	got, err = c.NeighborFactor(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("NeighborFactor(max) = %v, want 0", got)
	}
	// Degenerate: no task has neighbors -> maximal demand for all.
	got, err = c.NeighborFactor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("NeighborFactor(0, 0) = %v, want ln2", got)
	}
	if _, err := c.NeighborFactor(-1, 5); !errors.Is(err, ErrBadInputs) {
		t.Errorf("negative neighbors err = %v", err)
	}
	if _, err := c.NeighborFactor(6, 5); !errors.Is(err, ErrBadInputs) {
		t.Errorf("neighbors > max err = %v", err)
	}
}

func TestDemandBoundProperty(t *testing.T) {
	// For any valid inputs, 0 <= demand <= lambda_max*ln2 and the
	// normalized demand is in [0, 1] (the bound from Section IV-C).
	c := DefaultConfig()
	c.Lambda1, c.Lambda2, c.Lambda3 = 2, 0.5, 1.5
	f := func(deadlineRaw, roundRaw uint8, progressRaw uint16, nRaw, nMaxRaw uint8) bool {
		deadline := 1 + int(deadlineRaw)%30
		round := 1 + int(roundRaw)%30
		progress := float64(progressRaw) / math.MaxUint16
		maxN := int(nMaxRaw)
		n := 0
		if maxN > 0 {
			n = int(nRaw) % (maxN + 1)
		}
		d, err := c.demand(round, Inputs{Deadline: deadline, Progress: progress, Neighbors: n}, maxN)
		if err != nil {
			return false
		}
		if d < 0 || d > c.LambdaMax()*math.Ln2+1e-12 {
			return false
		}
		norm := c.Normalize(d)
		return norm >= 0 && norm <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDemandsComputesNmax(t *testing.T) {
	c := DefaultConfig()
	inputs := []Inputs{
		{Deadline: 10, Progress: 0.5, Neighbors: 2},
		{Deadline: 10, Progress: 0.5, Neighbors: 8},
	}
	ds, err := c.DemandsInto(1, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Task with fewer neighbors must have strictly larger demand, all else
	// equal.
	if ds[0] <= ds[1] {
		t.Errorf("demand with fewer neighbors (%v) not greater than with more (%v)", ds[0], ds[1])
	}
}

func TestDemandsEmptyInput(t *testing.T) {
	ds, err := DefaultConfig().DemandsInto(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("DemandsInto(nil) = %v", ds)
	}
}

func TestDemandsInvalidConfig(t *testing.T) {
	c := DefaultConfig()
	c.Weights = [3]float64{1, 1, 1}
	if _, err := c.DemandsInto(1, []Inputs{{Deadline: 5}}, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDemandDirectionality(t *testing.T) {
	c := DefaultConfig()
	base := Inputs{Deadline: 10, Progress: 0.5, Neighbors: 5}
	baseD, err := c.demand(5, base, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Closer to the deadline -> higher demand.
	closer, err := c.demand(9, base, 10)
	if err != nil {
		t.Fatal(err)
	}
	if closer <= baseD {
		t.Errorf("demand near deadline %v <= base %v", closer, baseD)
	}
	// Smaller progress -> higher demand.
	lessDone := base
	lessDone.Progress = 0.1
	ld, err := c.demand(5, lessDone, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ld <= baseD {
		t.Errorf("demand with less progress %v <= base %v", ld, baseD)
	}
	// Fewer neighbors -> higher demand.
	lonely := base
	lonely.Neighbors = 0
	lo, err := c.demand(5, lonely, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= baseD {
		t.Errorf("demand with fewer neighbors %v <= base %v", lo, baseD)
	}
}

func TestNormalizedDemands(t *testing.T) {
	c := DefaultConfig()
	// Maximum-demand task: deadline round, zero progress, no neighbors.
	ds, err := c.NormalizedDemandsInto(10, []Inputs{{Deadline: 10, Progress: 0, Neighbors: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ds[0]-1) > 1e-9 {
		t.Errorf("max-demand normalized = %v, want 1", ds[0])
	}
}

func TestNormalizeClamps(t *testing.T) {
	c := DefaultConfig()
	if got := c.Normalize(-0.5); got != 0 {
		t.Errorf("Normalize(-0.5) = %v", got)
	}
	if got := c.Normalize(100); got != 1 {
		t.Errorf("Normalize(100) = %v", got)
	}
}
