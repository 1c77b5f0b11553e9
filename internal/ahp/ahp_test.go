package ahp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewPairwiseMatrixValid(t *testing.T) {
	pm, err := NewPairwiseMatrix([3][3]float64{
		{1, 2, 4},
		{0.5, 1, 2},
		{0.25, 0.5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pm.At(0, 1) != 2 || pm.At(2, 0) != 0.25 {
		t.Errorf("At(0,1), At(2,0) = %v, %v, want 2, 0.25", pm.At(0, 1), pm.At(2, 0))
	}
}

func TestNewPairwiseMatrixRejections(t *testing.T) {
	// with returns the identity judgments with a[i][j] = v.
	with := func(i, j int, v float64) [3][3]float64 {
		a := [3][3]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
		a[i][j] = v
		return a
	}
	tests := []struct {
		name    string
		a       [3][3]float64
		wantErr error
	}{
		{"zero entry", with(0, 1, 0), ErrNotPositive},
		{"negative entry", [3][3]float64{{1, -2, 1}, {-0.5, 1, 1}, {1, 1, 1}}, ErrNotPositive},
		{"bad diagonal", with(1, 1, 2), ErrNotReciprocal},
		{"not reciprocal", with(1, 2, 2), ErrNotReciprocal},
		{"beyond saaty scale", [3][3]float64{{1, 10, 1}, {0.1, 1, 1}, {1, 1, 1}}, ErrBadScale},
		{"nan", with(0, 2, math.NaN()), ErrNotPositive},
		{"inf", with(2, 0, math.Inf(1)), ErrNotPositive},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewPairwiseMatrix(tt.a)
			if err == nil {
				t.Fatal("invalid matrix accepted")
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestPaperTableI verifies the judgments quoted in the paper's Table I.
func TestPaperTableI(t *testing.T) {
	pm := PaperExampleMatrix()
	if pm.At(0, 1) != 3 || pm.At(0, 2) != 5 || pm.At(1, 2) != 2 {
		t.Error("Table I judgments wrong")
	}
	if pm.At(1, 0) != 1.0/3 || pm.At(2, 0) != 1.0/5 || pm.At(2, 1) != 0.5 {
		t.Error("Table I reciprocals wrong")
	}
}

func TestRowsReturnsCopy(t *testing.T) {
	pm := PaperExampleMatrix()
	rows := pm.Rows()
	rows[0][1] = 99
	if pm.At(0, 1) != 3 {
		t.Error("Rows() aliased internal state")
	}
}

// TestNormalizeColumnsPaperTableII verifies the column-normalized matrix
// quoted in the paper's Table II.
func TestNormalizeColumnsPaperTableII(t *testing.T) {
	norm := PaperExampleMatrix().Normalized()
	wantNorm := [3][3]float64{
		{0.652, 0.667, 0.625},
		{0.217, 0.222, 0.250},
		{0.131, 0.111, 0.125},
	}
	for i := range wantNorm {
		for j := range wantNorm[i] {
			if math.Abs(norm[i][j]-wantNorm[i][j]) > 0.0015 {
				t.Errorf("normalized[%d][%d] = %.4f, want %.3f", i, j, norm[i][j], wantNorm[i][j])
			}
		}
	}
	// Each column of the normalized matrix must sum to 1.
	for j := 0; j < 3; j++ {
		s := norm[0][j] + norm[1][j] + norm[2][j]
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("normalized column %d sums to %v", j, s)
		}
	}
}

// TestPaperTableII verifies the weight vector W = (0.648, 0.230, 0.122)
// derived from Table II and quoted in Section IV-B.
func TestPaperTableII(t *testing.T) {
	w := PaperExampleMatrix().PaperWeights()
	wantW := [3]float64{0.648, 0.230, 0.122}
	for i := range wantW {
		if math.Abs(w[i]-wantW[i]) > 0.001 {
			t.Errorf("w[%d] = %.4f, want %.3f", i, w[i], wantW[i])
		}
	}
}

// TestWeightsSumToOne: the row-mean weights of any valid comparison
// matrix are positive and sum to 1.
func TestWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		var a [3][3]float64
		for i := range a {
			a[i][i] = 1
			for j := i + 1; j < 3; j++ {
				// Random Saaty judgment in [1/9, 9].
				v := float64(1 + rng.Intn(9))
				if rng.Intn(2) == 0 {
					v = 1 / v
				}
				a[i][j], a[j][i] = v, 1/v
			}
		}
		pm, err := NewPairwiseMatrix(a)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, x := range pm.PaperWeights() {
			if x <= 0 {
				t.Fatalf("%v: non-positive weight %v", a, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v: weights sum to %v", a, sum)
		}
	}
}

// TestWeightsRecoverConsistentMatrix: when the matrix is perfectly
// consistent (a[i][j] = w_i/w_j) the row-mean method recovers w.
func TestWeightsRecoverConsistentMatrix(t *testing.T) {
	w := [3]float64{0.5, 0.3, 0.2}
	var a [3][3]float64
	for i := range a {
		for j := range a[i] {
			a[i][j] = w[i] / w[j]
		}
	}
	pm, err := NewPairwiseMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	got := pm.PaperWeights()
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-6 {
			t.Errorf("w[%d] = %v, want %v", i, got[i], w[i])
		}
	}
}

func TestWeightsOrderingMatchesDominance(t *testing.T) {
	// C1 dominates C2 dominates C3, so weights must be strictly decreasing.
	if w := PaperExampleMatrix().PaperWeights(); !(w[0] > w[1] && w[1] > w[2]) {
		t.Errorf("weights not decreasing: %v", w)
	}
}

// TestPaperFloat64Bits pins Table II's weights and consistency statistics
// bit for bit. The power iteration's start vector (1/3 each), summation
// order, 1e-12 tolerance and the row-mean order fix these floats, and the
// rendered tables and EXPERIMENTS.md depend on them.
func TestPaperFloat64Bits(t *testing.T) {
	pm := PaperExampleMatrix()
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	w := pm.PaperWeights()
	got := [...]float64{c.LambdaMax, c.Index, c.Ratio, w[0], w[1], w[2]}
	want := [...]uint64{
		0x40080791088ed7af, 0x3f5e44223b5ebc00, 0x3f6a176cf563529f,
		0x3fe4bbfb0d9a96e1, 0x3fcd6c6b2e953af3, 0x3fbf47513600d311,
	}
	names := [...]string{"LambdaMax", "Index", "Ratio", "w1", "w2", "w3"}
	for i := range want {
		if bits := math.Float64bits(got[i]); bits != want[i] {
			t.Errorf("%s = %v (%#x), want %#x", names[i], got[i], bits, want[i])
		}
	}
}

func TestConsistencyPaperMatrix(t *testing.T) {
	pm := PaperExampleMatrix()
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	// Known values for this classic matrix: lambda_max ~ 3.0037,
	// CI ~ 0.0018, CR ~ 0.0032 -- comfortably consistent.
	if math.Abs(c.LambdaMax-3.0037) > 0.001 {
		t.Errorf("LambdaMax = %v, want ~3.0037", c.LambdaMax)
	}
	if !c.Acceptable() {
		t.Errorf("paper matrix flagged inconsistent: %+v", c)
	}
}

func TestConsistencyPerfect(t *testing.T) {
	// A perfectly consistent matrix has lambda_max = n and CI = CR = 0.
	w := [3]float64{0.6, 0.25, 0.15}
	var a [3][3]float64
	for i := range a {
		for j := range a[i] {
			a[i][j] = w[i] / w[j]
		}
	}
	pm, err := NewPairwiseMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.LambdaMax-3) > 1e-6 || math.Abs(c.Index) > 1e-6 || math.Abs(c.Ratio) > 1e-5 {
		t.Errorf("perfect matrix consistency = %+v", c)
	}
}

func TestConsistencyInconsistentMatrix(t *testing.T) {
	// Strongly intransitive judgments: C1 > C2 > C3 > C1.
	pm, err := NewPairwiseMatrix([3][3]float64{
		{1, 9, 1.0 / 9},
		{1.0 / 9, 1, 9},
		{9, 1.0 / 9, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	if c.Acceptable() {
		t.Errorf("wildly intransitive matrix passed: %+v", c)
	}
	if c.Ratio < 1 {
		t.Errorf("CR = %v, want >> 0.1", c.Ratio)
	}
}

func TestLambdaMaxAtLeastN(t *testing.T) {
	// Saaty: lambda_max >= n for any positive reciprocal matrix.
	pm, err := NewPairwiseMatrix([3][3]float64{
		{1, 5, 1.0 / 3},
		{1.0 / 5, 1, 1.0 / 7},
		{3, 7, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pm.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	if c.LambdaMax < 3-1e-9 {
		t.Errorf("LambdaMax = %v < n", c.LambdaMax)
	}
}
