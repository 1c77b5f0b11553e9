package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomPoints(rng *rand.Rand, n int, bounds Rect) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
	}
	return pts
}

func TestNewGridIndexRejectsBadInput(t *testing.T) {
	if _, err := NewGridIndex(Rect{Min: Pt(1, 1), Max: Pt(0, 0)}, 10, nil); err == nil {
		t.Error("invalid bounds accepted")
	}
	if _, err := NewGridIndex(Square(100), 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGridIndex(Square(100), -5, nil); err == nil {
		t.Error("negative cell size accepted")
	}
}

func TestGridIndexCountWithinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := Square(3000)
	pts := randomPoints(rng, 500, bounds)
	g, err := NewGridIndex(bounds, 500, pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		center := Pt(rng.Float64()*3000, rng.Float64()*3000)
		r := rng.Float64() * 1000
		got := g.CountWithin(center, r)
		want := CountWithinBrute(pts, center, r)
		if got != want {
			t.Fatalf("CountWithin(%v, %v) = %d, want %d", center, r, got, want)
		}
	}
}

func TestGridIndexCountWithinStrictBoundary(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Point at distance exactly 10 must NOT count (paper: distance < R).
	if got := g.CountWithin(Pt(0, 0), 10); got != 1 {
		t.Errorf("CountWithin strict boundary = %d, want 1", got)
	}
	if got := g.CountWithin(Pt(0, 0), 10.001); got != 2 {
		t.Errorf("CountWithin just past boundary = %d, want 2", got)
	}
}

func TestGridIndexWithin(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(50, 50), Pt(2, 2)}
	g, err := NewGridIndex(Square(100), 25, pts)
	if err != nil {
		t.Fatal(err)
	}
	got := g.WithinInto(nil, Pt(0, 0), 5)
	if len(got) != 2 {
		t.Fatalf("WithinInto = %v, want 2 hits", got)
	}
	seen := map[int]bool{}
	for _, i := range got {
		seen[i] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("WithinInto = %v, want indices 0 and 2", got)
	}
}

func TestGridIndexPointsOutsideBounds(t *testing.T) {
	// Points outside the declared bounds must still be findable.
	pts := []Point{Pt(-50, -50), Pt(150, 150)}
	g, err := NewGridIndex(Square(100), 20, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountWithin(Pt(-50, -50), 1); got != 1 {
		t.Errorf("outside point not found: %d", got)
	}
	if got := g.CountWithin(Pt(0, 0), 1000); got != 2 {
		t.Errorf("CountWithin big radius = %d, want 2", got)
	}
}

func TestGridIndexLen(t *testing.T) {
	g, err := NewGridIndex(Square(100), 10, []Point{Pt(1, 1), Pt(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestGridIndexTinyCells(t *testing.T) {
	// Cell size much smaller than the area must not explode or miss.
	pts := []Point{Pt(0.5, 0.5), Pt(99.5, 99.5)}
	g, err := NewGridIndex(Square(100), 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CountWithin(Pt(0, 0), 2); got != 1 {
		t.Errorf("CountWithin = %d", got)
	}
}

func TestGridIndexCopiesInput(t *testing.T) {
	pts := []Point{Pt(1, 1)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[0] = Pt(99, 99)
	if got := g.CountWithin(Pt(1, 1), 1); got != 1 {
		t.Error("index aliased caller's slice")
	}
}

// TestGridIndexResetReuse pins the in-place reuse contract: one index
// Reset over changing point sets, cell sizes, and bounds must answer
// exactly like a fresh index each time, including shrinking below a
// previous size, and must not allocate once grown.
func TestGridIndexResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := &GridIndex{}
	for trial := 0; trial < 20; trial++ {
		side := 500 + rng.Float64()*2500
		bounds := Square(side)
		cell := 50 + rng.Float64()*500
		n := rng.Intn(300) // occasionally far smaller than the last trial
		pts := randomPoints(rng, n, bounds)
		if err := g.Reset(bounds, cell, pts); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewGridIndex(bounds, cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != fresh.Len() {
			t.Fatalf("trial %d: Len = %d, want %d", trial, g.Len(), fresh.Len())
		}
		for q := 0; q < 50; q++ {
			center := Pt(rng.Float64()*side, rng.Float64()*side)
			r := rng.Float64() * side / 2
			if got, want := g.CountWithin(center, r), fresh.CountWithin(center, r); got != want {
				t.Fatalf("trial %d: CountWithin(%v, %v) = %d, want %d", trial, center, r, got, want)
			}
		}
	}
}

func TestGridIndexResetRejectsBadInput(t *testing.T) {
	g := &GridIndex{}
	if err := g.Reset(Rect{Min: Pt(1, 1), Max: Pt(0, 0)}, 10, nil); err == nil {
		t.Error("invalid bounds accepted")
	}
	if err := g.Reset(Square(100), 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
}

// TestGridIndexWithinIntoMatchesWithin checks that a query into a reused
// buffer returns exactly what the same query into a nil one does.
func TestGridIndexWithinIntoMatchesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bounds := Square(2000)
	pts := randomPoints(rng, 400, bounds)
	g, err := NewGridIndex(bounds, 250, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	for trial := 0; trial < 100; trial++ {
		center := Pt(rng.Float64()*2000, rng.Float64()*2000)
		r := rng.Float64() * 800
		want := g.WithinInto(nil, center, r)
		buf = g.WithinInto(buf, center, r)
		if len(buf) != len(want) {
			t.Fatalf("WithinInto(%v, %v) into a reused buffer found %d, into nil %d", center, r, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("WithinInto(%v, %v)[%d] = %d into a reused buffer, %d into nil", center, r, i, buf[i], want[i])
			}
		}
	}
}

func TestGridIndexWithinIntoReusesCapacity(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	g, err := NewGridIndex(Square(100), 10, pts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	got := g.WithinInto(buf, Pt(0, 0), 10)
	if len(got) != 3 {
		t.Fatalf("WithinInto = %v, want 3 hits", got)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Error("WithinInto reallocated despite sufficient capacity")
	}
}

func TestGridIndexWithinIntoSteadyStateAllocs(t *testing.T) {
	bounds := Square(1000)
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 300, bounds)
	g, err := NewGridIndex(bounds, 100, pts)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int
	buf = g.WithinInto(buf, Pt(500, 500), 400) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.WithinInto(buf, Pt(500, 500), 400)
	})
	if allocs > 0 {
		t.Errorf("steady-state WithinInto allocates %v objects/op, want 0", allocs)
	}
}

func TestGridIndexResetSteadyStateAllocs(t *testing.T) {
	bounds := Square(1000)
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 200, bounds)
	g := &GridIndex{}
	if err := g.Reset(bounds, 100, pts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.Reset(bounds, 100, pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Reset allocates %v objects/op, want 0", allocs)
	}
}

// withinBrute is the O(n) reference for WithinInto: the indices of all
// points strictly within r of center, in input order.
func withinBrute(pts []Point, center Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.Dist(center) < r {
			out = append(out, i)
		}
	}
	return out
}

// TestGridIndexMatchesBruteProperty checks CountWithin and WithinInto
// (with either point of each pair as center: the pair predicate is
// symmetric) against the brute-force references on random
// grids whose cell size does not divide the bounds. The point sets mix
// uniform points with points on cell seams, points outside the bounds on
// every side (clamped into edge cells), and NaN and infinite coordinates.
// Radii include ones that put an indexed point exactly at distance r and
// one ulp either side of it (where the squared-distance band defers to
// the exact test), points on the center's axes, and tiny, huge, zero,
// infinite and NaN radii.
func TestGridIndexMatchesBruteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	inf, nan := math.Inf(1), math.NaN()
	var buf []int
	var one GridIndex // holds one query center at a time
	for trial := 0; trial < 60; trial++ {
		side := 200 + rng.Float64()*2800
		bounds := Rect{Min: Pt(-side/3, 10), Max: Pt(side, 10+side*(0.5+rng.Float64()))}
		cell := side / (1 + rng.Float64()*15)
		pts := randomPoints(rng, rng.Intn(400), bounds)
		for k := 0; k < 10; k++ {
			// On cell seams, and outside the bounds on every side.
			seam := Pt(bounds.Min.X+float64(rng.Intn(8))*cell, bounds.Min.Y+float64(rng.Intn(8))*cell)
			out := Pt(bounds.Min.X+rng.Float64()*3*side-side, bounds.Min.Y+rng.Float64()*3*side-side)
			pts = append(pts, seam, out, Pt(bounds.Max.X+rng.Float64()*cell, bounds.Max.Y+rng.Float64()*cell))
		}
		if trial%3 == 0 {
			pts = append(pts, Pt(nan, 5), Pt(5, nan), Pt(nan, nan), Pt(inf, 5), Pt(5, -inf), Pt(inf, inf), Pt(-inf, nan))
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		g, err := NewGridIndex(bounds, cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 40; q++ {
			center := Pt(bounds.Min.X+rng.Float64()*1.4*side-0.2*side, bounds.Min.Y+rng.Float64()*1.4*side-0.2*side)
			if q%10 == 9 {
				center = pts[rng.Intn(len(pts))] // possibly non-finite
			}
			var radii []float64
			if len(pts) > 0 {
				p := pts[rng.Intn(len(pts))]
				edge := p.Dist(center)
				radii = append(radii, edge, math.Nextafter(edge, -inf), math.Nextafter(edge, inf))
				axis := math.Abs(p.X - center.X) // a point on the center's horizontal axis
				pts2 := append(append([]Point(nil), pts...), Pt(center.X+axis, center.Y))
				if g2, err := NewGridIndex(bounds, cell, pts2); err == nil {
					for _, r := range []float64{axis, math.Nextafter(axis, inf)} {
						if got, want := g2.CountWithin(center, r), CountWithinBrute(pts2, center, r); got != want {
							t.Fatalf("trial %d: axis CountWithin(%v, %v) = %d, want %d", trial, center, r, got, want)
						}
					}
				}
			}
			// One cell spans the bounds, so these queries cost little
			// beyond the pair test they check.
			if err := one.Reset(bounds, 2*side, []Point{center}); err != nil {
				t.Fatal(err)
			}
			radii = append(radii, rng.Float64()*side, 0, -1, 1e-300, 5e-324, 1e-100, 1e100, 1e300, math.MaxFloat64, inf, nan)
			for _, r := range radii {
				want := withinBrute(pts, center, r)
				if got := g.CountWithin(center, r); got != len(want) {
					t.Fatalf("trial %d: CountWithin(%v, %v) = %d, want %d", trial, center, r, got, len(want))
				}
				buf = g.WithinInto(buf, center, r)
				got := append([]int(nil), buf...)
				sort.Ints(got)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: WithinInto(%v, %v) = %v, want %v", trial, center, r, got, want)
				}
				inside := make([]bool, len(pts))
				for _, i := range want {
					inside[i] = true
				}
				// The other way round: an index holding only center,
				// queried around each point, decides every pair alike.
				for i, p := range pts {
					n := one.CountWithin(p, r)
					buf = one.WithinInto(buf, p, r)
					if n != len(buf) || (n == 1) != inside[i] || n > 1 || n == 1 && buf[0] != 0 {
						t.Fatalf("trial %d: query around %v at %v counts %d, finds %v; want inside %v", trial, p, r, n, buf, inside[i])
					}
				}
			}
		}
	}
}
