package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// schrage is math/rand's seedrand: one step x → A·x mod p of the seed
// chain by Schrage's method, with the standard library's constants.
func schrage(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi, lo := x/q, x%q
	x = a*lo - r*hi
	if x < 0 {
		x += seedMod
	}
	return x
}

// TestMulModMatchesSchrage holds the Mersenne-reduced product to the
// standard library's Schrage step, and the multiplier table to the
// chain it replaces.
func TestMulModMatchesSchrage(t *testing.T) {
	for _, x := range []int32{
		1, 2, 3, 3398, 3399, 3400, 44487, 44488, 44489, 48271,
		1 << 16, 1 << 30, 1<<30 + 1, zeroSeed, seedMod/2 - 1, seedMod / 2,
		seedMod/2 + 1, seedMod - 48271, seedMod - 44488, seedMod - 2, seedMod - 1,
	} {
		if got, want := mulMod(seedMul, uint64(x)), uint64(schrage(x)); got != want {
			t.Errorf("mulMod(A, %d) = %d, Schrage step gives %d", x, got, want)
		}
	}
	x := int32(1)
	for n := 0; n < seedSkip; n++ {
		x = schrage(x)
	}
	for i := range seedPow {
		for j, m := range seedPow[i] {
			x = schrage(x)
			if m != uint64(x) {
				t.Fatalf("seedPow[%d][%d] = %d, want A^%d mod p = %d", i, j, m, seedSkip+1+3*i+j, x)
			}
		}
	}
}

// TestSourceMatchesMathRand holds the jump-ahead source to
// rand.NewSource over 10,000 seeds spread across int64: the first two
// full turns of the register (1,214 draws) must agree word for word.
func TestSourceMatchesMathRand(t *testing.T) {
	const turns = 2 * srcLen
	for i := int64(0); i < 10000; i++ {
		seed := i * -0x61c8864680b583eb // wraps: spreads the seeds over all of int64
		if i%2 == 1 {
			seed = i / 2 // small seeds too
		}
		ours, std := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for k := 0; k < turns; k++ {
			if got, want := ours.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand gives %#x", seed, k, got, want)
			}
		}
	}
}

// FuzzRNGMatchesMathRand runs a script of draws — Float64, Intn,
// IntBetween, NormFloat64, PermInto and a Split child's first draw —
// against rand.New(rand.NewSource(seed)) and requires every draw to
// match. IntBetween's reference is lo + Intn(hi-lo+1), or for a range
// of more than math.MaxInt values, the first Uint64 that lands in it.
// A Reset op turns the stream into another seed's, anywhere in the
// script, and the reference becomes a new source of that seed: the
// stream's later draws and Split children must follow it.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 7, 2, 3, 9, 3, 4, 12, 5})
	f.Add(int64(0), []byte{5, 5, 0, 4, 0, 2, 0x80, 0xff})
	f.Add(int64(math.MinInt64), []byte{2, 0xff, 0xff, 2, 0x7f, 0x80, 3, 0})
	f.Add(int64(seedMod), []byte{1, 0xff, 4, 17, 5, 0})
	f.Add(int64(-zeroSeed), []byte{0, 0, 0, 3, 3, 3})
	// Reset before any draw, after draws, twice in a row, then Split.
	f.Add(int64(7), []byte{6, 1, 2, 0, 0, 0, 6, 3, 4})
	f.Add(int64(9), []byte{3, 0, 0, 4, 30, 0, 6, 0, 0, 1, 9, 9})
	f.Add(int64(-3), []byte{0, 0, 0, 6, 5, 6, 6, 0xff, 0xff, 5, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		arg := func(i int) byte {
			if i < len(script) {
				return script[i]
			}
			return 0
		}
		for i := 0; i < len(script); i += 3 {
			a, b := arg(i+1), arg(i+2)
			switch script[i] % 7 {
			case 0:
				if got, want := g.Float64(), ref.Float64(); got != want {
					t.Fatalf("op %d Float64 = %v, want %v", i, got, want)
				}
			case 1:
				n := int(a)<<8 | int(b) + 1
				if got, want := g.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("op %d Intn(%d) = %d, want %d", i, n, got, want)
				}
			case 2:
				lo, hi := fuzzRange(a, b)
				want := 0
				if span := uint(hi) - uint(lo); span < math.MaxInt {
					want = lo + ref.Intn(int(span)+1)
				} else {
					want = int(ref.Uint64())
					for want < lo || want > hi {
						want = int(ref.Uint64())
					}
				}
				if got := g.IntBetween(lo, hi); got != want {
					t.Fatalf("op %d IntBetween(%d, %d) = %d, want %d", i, lo, hi, got, want)
				}
			case 3:
				if got, want := g.NormFloat64(), ref.NormFloat64(); got != want {
					t.Fatalf("op %d NormFloat64 = %v, want %v", i, got, want)
				}
			case 4:
				n := int(a % 40)
				if got, want := g.PermInto(nil, n), ref.Perm(n); !slices.Equal(got, want) {
					t.Fatalf("op %d PermInto(%d) = %v, want %v", i, n, got, want)
				}
			case 5:
				child, childRef := g.Split(), rand.New(rand.NewSource(ref.Int63()))
				if got, want := child.Int63(), childRef.Int63(); got != want {
					t.Fatalf("op %d Split child's first draw = %d, want %d", i, got, want)
				}
			case 6:
				seed = seed*31 + int64(a)<<8 | int64(b)
				g.Reset(seed)
				ref = rand.New(rand.NewSource(seed))
			}
		}
	})
}

// fuzzRange decodes an IntBetween range from two bytes: the high bits of
// a pick the range's kind (small, near the ends of int, or wider than
// math.MaxInt values), the rest place it.
func fuzzRange(a, b byte) (lo, hi int) {
	small := int(a&0x3f) - 32
	switch a >> 6 {
	case 0:
		return small, small + int(b)
	case 1:
		return math.MinInt + int(b), math.MinInt + int(b) + int(a&0x3f)
	case 2:
		return math.MaxInt - int(b) - int(a&0x3f), math.MaxInt - int(b)
	default:
		return math.MinInt + int(b)*(math.MaxInt/255), math.MaxInt - int(a&0x3f)
	}
}

var sinkFloat float64

// BenchmarkNewRNG times a fresh RNG's first draw: the cost of seeding
// its source, which every stream a trial draws from pays once.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFloat = NewRNG(int64(i)).Float64()
	}
}
