package stats

import "math/rand"

// source is math/rand's Go 1 generator (rngSource in math/rand/rng.go):
// an additive lagged-Fibonacci generator over a 607-word register,
// x[n] = x[n-607] + x[n-273] mod 2⁶⁴. Its Seed normalisation and its
// tap/feed walk are the standard library's, so rand.New(source) draws
// exactly what rand.New(rand.NewSource(seed)) draws, bit for bit, through
// every math/rand helper.
//
// Only the seeding differs. The standard library fills register word i
// with (x₂₁₊₃ᵢ<<40) ^ (x₂₂₊₃ᵢ<<20) ^ x₂₃₊₃ᵢ ^ cooked[i], stepping the
// Lehmer chain xₙ₊₁ = A·xₙ mod p (A = 48271, p = 2³¹−1) 1,841 times in
// a row, each step two integer divisions that wait on the one before.
// Since xₙ = Aⁿ·x₀ mod p, Seed instead takes each xₙ as one product of
// x₀ with a precomputed Aⁿ mod p and an exact Mersenne reduction: 1,821
// independent multiplies in place of a dependent division chain.
type source struct {
	tap, feed int
	vec       [srcLen]uint64
}

const (
	srcLen = 607 // register length, the generator's long lag
	srcTap = 273 // its short lag

	// The seed chain: a Lehmer generator modulo the Mersenne prime p.
	seedMod  = 1<<31 - 1 // p
	seedMul  = 48271     // A
	seedSkip = 20        // chain steps the standard library discards before word 0
	zeroSeed = 89482311  // stands in for a seed ≡ 0 (mod p), which the chain would keep at 0
)

var (
	// seedPow[i][j] is A^(seedSkip+1+3i+j) mod p: the multiplier that
	// takes the normalised seed to the j-th chain value of word i.
	seedPow [srcLen][3]uint64
	// cooked is math/rand's rngCooked, read back from the standard
	// library's own source at init (see recoverCooked).
	cooked [srcLen]uint64
)

func init() {
	m := uint64(1)
	for n := 0; n < seedSkip; n++ {
		m = mulMod(m, seedMul)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			m = mulMod(m, seedMul)
			seedPow[i][j] = m
		}
	}
	cooked = recoverCooked()
}

// mulMod returns a·b mod p for a, b in [1, p). The product is below 2⁶²;
// since 2³¹ ≡ 1 (mod p), folding its high bits onto its low 31 leaves a
// value in [1, 2p] congruent to it, and one conditional subtraction
// finishes the reduction. The result is never 0 because p is prime.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&seedMod + v>>31
	if v >= seedMod {
		v -= seedMod
	}
	return v
}

// recoverCooked reads math/rand's cooked constants out of the standard
// library's source instead of vendoring them: it seeds that source,
// reads one register's worth of output, undoes the lag-607/273
// recurrence to get the seeded register back, and XORs out the seed
// chain.
func recoverCooked() [srcLen]uint64 {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	// Draw k (from 0) adds tap word srcLen-1-k into feed word
	// srcLen-srcTap-1-k (mod srcLen) and returns the sum, so after
	// srcLen draws every word has been written exactly once.
	feedWord := func(k int) int { return (srcLen - srcTap - 1 - k + srcLen) % srcLen }
	var reg [srcLen]uint64
	for k := 0; k < srcLen; k++ {
		reg[feedWord(k)] = std.Uint64()
	}
	// Undo the draws last first: a draw leaves its tap word alone, so
	// once the later draws are undone the tap word holds what draw k
	// read.
	for k := srcLen - 1; k >= 0; k-- {
		reg[feedWord(k)] -= reg[srcLen-1-k]
	}
	var c [srcLen]uint64
	x := normSeed(seed)
	for i := range c {
		c[i] = reg[i] ^ chainWord(x, i)
	}
	return c
}

// normSeed maps a seed to the chain's start x₀ in [1, p) as the standard
// library's Seed does.
func normSeed(seed int64) uint64 {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// chainWord returns the seed chain's part of register word i for chain
// start x.
func chainWord(x uint64, i int) uint64 {
	m := &seedPow[i]
	return mulMod(m[0], x)<<40 ^ mulMod(m[1], x)<<20 ^ mulMod(m[2], x)
}

// newSource returns a source seeded with seed.
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	x := normSeed(seed)
	for i := range s.vec {
		s.vec[i] = chainWord(x, i) ^ cooked[i]
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
