// Package stats provides seeded randomness helpers and the summary
// statistics (mean, variance, quantiles, five-number boxplot summaries)
// reported by the paper's experiments.
package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with the draw helpers the simulator needs. All
// simulator randomness flows through an explicit RNG so that experiments
// are reproducible from a single seed; there are no global random sources.
//
// Its draws are math/rand's, bit for bit: the source is the standard
// library's generator with a jump-ahead Seed (see source). An RNG keeps
// its seed and builds its source on the first draw. Seeding still fills
// 607 words, about 5 µs and a 5 KB allocation on a 2-CPU Xeon, which is
// more than a short stream of draws costs; a trial splits several
// streams (mobility, churn, budget jitter, ...) that its configuration
// may never draw from, and those cost nothing. Reset turns an RNG into
// another seed's stream and keeps the source storage, so a stream that
// is reset for each trial pays the 5 KB once; the seeding still waits
// for the first draw.
//
// The zero RNG is the stream of seed 0.
type RNG struct {
	seed int64
	r    *rand.Rand // nil until the first draw
	// idle is the source a Reset took out of use, reseeded by the next
	// first draw instead of a new allocation.
	idle *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// Reset makes g the stream NewRNG(seed) returns: its next draw is that
// stream's first. It keeps g's source storage for that draw to seed.
func (g *RNG) Reset(seed int64) {
	if g.r != nil {
		g.idle, g.r = g.r, nil
	}
	g.seed = seed
}

// src returns the generator's source, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.start()
	}
	return g.r
}

// start seeds the source for the first draw, in the storage a Reset
// kept when there is one.
func (g *RNG) start() {
	if g.idle == nil {
		g.r = rand.New(newSource(g.seed))
		return
	}
	g.r, g.idle = g.idle, nil
	g.r.Seed(g.seed)
}

// Split derives an independent child generator from the parent's stream.
// Distinct calls yield distinct streams; use it to give each trial of an
// experiment its own generator so trials are independent yet reproducible.
// The child's seed is drawn from the parent at once, so the parent's
// stream does not depend on when, or whether, the child is drawn from.
func (g *RNG) Split() *RNG {
	return NewRNG(g.src().Int63())
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + g.src().Float64()*(hi-lo)
}

// IntBetween returns a uniform integer in the inclusive range [lo, hi].
// It panics if lo > hi. A range of more than math.MaxInt values, whose
// size does not fit in an int, is drawn by rejection from Uint64.
func (g *RNG) IntBetween(lo, hi int) int {
	if lo > hi {
		panic("stats: IntBetween with lo > hi")
	}
	if span := uint(hi) - uint(lo); span < math.MaxInt {
		return lo + g.src().Intn(int(span)+1)
	}
	for {
		if v := int(g.src().Uint64()); lo <= v && v <= hi {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.src().Int63() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// PermInto fills buf with a random permutation of [0, n), reusing buf's
// storage when it is large enough. It consumes exactly the same draws from
// the generator as Perm — the inside-out Fisher-Yates of math/rand, one
// Intn(i+1) per i in [0, n), including the i = 0 iteration whose Intn(1)
// burns a draw exactly like the standard library's loop does — so
// switching a caller from Perm to PermInto leaves every subsequent draw of
// the stream, and therefore every seeded result, unchanged.
func (g *RNG) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	r := g.src()
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// Shuffle randomizes the order of n elements using the provided swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }
