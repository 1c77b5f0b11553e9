package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSplitIndependentStreams(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := true
	for i := 0; i < 10; i++ {
		if c1.Float64() != c2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("sibling splits produced identical streams")
	}
}

func TestSplitReproducible(t *testing.T) {
	a := NewRNG(7).Split()
	b := NewRNG(7).Split()
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("splits from equal parents diverged")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 15)
		if v < 5 || v >= 15 {
			t.Fatalf("Uniform(5,15) = %v out of range", v)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	g := NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := g.IntBetween(5, 15)
		if v < 5 || v > 15 {
			t.Fatalf("IntBetween(5,15) = %d out of range", v)
		}
		seen[v] = true
	}
	if !seen[5] || !seen[15] {
		t.Error("IntBetween never hit the bounds in 1000 draws")
	}
}

func TestIntBetweenDegenerate(t *testing.T) {
	g := NewRNG(1)
	if v := g.IntBetween(7, 7); v != 7 {
		t.Errorf("IntBetween(7,7) = %d", v)
	}
}

// TestIntBetweenWideRanges draws ranges of more than math.MaxInt values,
// which used to panic in Intn: the draw is the first Uint64, as an int,
// that lies in the range.
func TestIntBetweenWideRanges(t *testing.T) {
	for _, r := range []struct{ lo, hi int }{
		{math.MinInt, math.MaxInt},
		{0, math.MaxInt},
		{-1, math.MaxInt - 1},
		{math.MinInt, 0},
	} {
		g, ref := NewRNG(3), rand.New(rand.NewSource(3))
		for i := 0; i < 100; i++ {
			want := int(ref.Uint64())
			for want < r.lo || want > r.hi {
				want = int(ref.Uint64())
			}
			if got := g.IntBetween(r.lo, r.hi); got != want {
				t.Fatalf("IntBetween(%d, %d) draw %d = %d, want %d", r.lo, r.hi, i, got, want)
			}
		}
	}
}

// TestIntBetweenFittingRangesUnchanged holds every range whose size
// fits in an int to its historical draw, lo + Intn(hi-lo+1), so seeded
// streams do not move.
func TestIntBetweenFittingRangesUnchanged(t *testing.T) {
	for _, r := range []struct{ lo, hi int }{
		{5, 15},
		{-5, 5},
		{7, 7},
		{0, math.MaxInt - 1},
		{math.MinInt, math.MinInt + 10},
		{math.MinInt / 2, math.MaxInt/2 - 1},
		{math.MaxInt - 3, math.MaxInt},
	} {
		g, ref := NewRNG(9), rand.New(rand.NewSource(9))
		for i := 0; i < 100; i++ {
			want := r.lo + ref.Intn(r.hi-r.lo+1)
			if got := g.IntBetween(r.lo, r.hi); got != want {
				t.Fatalf("IntBetween(%d, %d) draw %d = %d, want %d", r.lo, r.hi, i, got, want)
			}
		}
	}
}

func TestIntBetweenPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntBetween(2,1) did not panic")
		}
	}()
	NewRNG(1).IntBetween(2, 1)
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(3)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	// PermInto must consume exactly the same draws as Perm: two generators
	// with the same seed, one calling Perm and one PermInto, must stay in
	// lockstep over many interleaved calls (the simulation relies on this
	// to keep seeded regression constants unchanged).
	a := NewRNG(11)
	b := NewRNG(11)
	var buf []int
	for call := 0; call < 50; call++ {
		n := call % 17 // exercise n = 0 and 1 too
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(buf) != len(want) {
			t.Fatalf("call %d: len = %d, want %d", call, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("call %d: PermInto = %v, Perm = %v", call, buf, want)
			}
		}
	}
	// The streams must still agree after the permutation calls.
	if a.Float64() != b.Float64() {
		t.Error("Perm and PermInto consumed different numbers of draws")
	}
}

func TestPermIntoReusesBuffer(t *testing.T) {
	g := NewRNG(5)
	buf := make([]int, 0, 32)
	out := g.PermInto(buf, 10)
	if &out[:cap(out)][0] != &buf[:cap(buf)][0] {
		t.Error("PermInto reallocated despite sufficient capacity")
	}
	out2 := g.PermInto(out, 32)
	if len(out2) != 32 {
		t.Fatalf("len = %d, want 32", len(out2))
	}
}

func TestShuffle(t *testing.T) {
	g := NewRNG(3)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 45 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

// TestLazySeedingMatchesEagerStreams holds the lazily seeded RNG to
// math/rand seeded at construction: every draw, through every helper,
// equals rand.New(rand.NewSource(s)) with the same seed, whether a child
// is first drawn before or after its parent's next Split, and a sibling
// that is never drawn leaves every other stream unchanged.
func TestLazySeedingMatchesEagerStreams(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, 42, 1 << 40, -(1 << 62), 9223372036854775807,
		// Seeding edge cases: multiples of p = 2³¹−1 (which seed as 0
		// does), math.MinInt64 and other negative remainders, and the
		// value that stands in for 0.
		seedMod, -seedMod, 2 * seedMod, -5 * seedMod, seedMod * (math.MaxInt64 / seedMod),
		seedMod - 1, -seedMod + 1, math.MinInt64, -12345, -seedMod - 7, zeroSeed}
	for _, seed := range seeds {
		parent, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		early := parent.Split()
		earlyRef := rand.New(rand.NewSource(ref.Int63()))
		if got, want := early.Float64(), earlyRef.Float64(); got != want {
			t.Fatalf("seed %d: child drawn before the next Split: %v, want %v", seed, got, want)
		}
		late := parent.Split()
		lateRef := rand.New(rand.NewSource(ref.Int63()))
		_ = parent.Split() // a sibling that is never drawn
		ref.Int63()
		if got, want := late.Int63(), lateRef.Int63(); got != want {
			t.Fatalf("seed %d: child drawn after the next Split: %d, want %d", seed, got, want)
		}
		if got, want := parent.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: parent after the undrawn sibling: %d, want %d", seed, got, want)
		}

		// Each helper as a fresh child's first draw, then one more draw
		// to show it consumed what the standard library does.
		helpers := []struct {
			name string
			draw func(g *RNG, r *rand.Rand) bool
		}{
			{"PermInto", func(g *RNG, r *rand.Rand) bool { return slices.Equal(g.PermInto(nil, 9), r.Perm(9)) }},
			{"Perm", func(g *RNG, r *rand.Rand) bool { return slices.Equal(g.Perm(9), r.Perm(9)) }},
			{"NormFloat64", func(g *RNG, r *rand.Rand) bool { return g.NormFloat64() == r.NormFloat64() }},
			{"Shuffle", func(g *RNG, r *rand.Rand) bool {
				a, b := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
				g.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				return slices.Equal(a, b)
			}},
		}
		for _, h := range helpers {
			g, r := parent.Split(), rand.New(rand.NewSource(ref.Int63()))
			if !h.draw(g, r) || g.Float64() != r.Float64() {
				t.Fatalf("seed %d: %s on a fresh child diverged from math/rand", seed, h.name)
			}
		}
	}
}

// TestSplitOfUndrawnChildAllocatesNoSource pins the point of lazy
// seeding: splitting a child off a drawn parent allocates the child's
// header only, not the ~5 KB math/rand source.
func TestSplitOfUndrawnChildAllocatesNoSource(t *testing.T) {
	parent := NewRNG(1)
	parent.Float64()
	var child *RNG
	if allocs := testing.AllocsPerRun(100, func() { child = parent.Split() }); allocs != 1 {
		t.Errorf("Split allocated %v times, want 1 (the RNG header)", allocs)
	}
	if child.r != nil {
		t.Error("Split seeded the child's source before its first draw")
	}
}

// TestResetReusesSource pins what Reset keeps: a reset stream's first
// draw seeds the source it already has and allocates nothing, and a
// Reset before any draw leaves the stream unseeded.
func TestResetReusesSource(t *testing.T) {
	g := NewRNG(1)
	g.Float64()
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		g.Reset(seed)
		g.Float64()
	}); allocs != 0 {
		t.Errorf("a reset stream's first draw allocated %v times, want 0", allocs)
	}
	fresh := NewRNG(5)
	fresh.Reset(6)
	if fresh.r != nil || fresh.idle != nil {
		t.Error("Reset of an undrawn stream seeded a source")
	}
}
