package selection

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// randomCtxProblem builds a random problem over a random round context:
// n task locations in the context, a random subset of them as candidates
// (with correct CtxIndex linkage), random budget/cost/overhead. It returns
// the cached problem; the caller strips Ctx for the uncached twin.
func randomCtxProblem(rng *stats.RNG) Problem {
	n := rng.IntBetween(0, 12)
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	ctx, err := NewRoundContext(locs)
	if err != nil {
		panic(err)
	}
	p := Problem{
		Start:           geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
		MaxDistance:     rng.Uniform(0, 1500),
		CostPerMeter:    rng.Uniform(0, 0.01),
		PerTaskDistance: rng.Uniform(0, 150),
		Ctx:             ctx,
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			continue // subset: not every open task is a candidate for every user
		}
		p.Candidates = append(p.Candidates, Candidate{
			ID:       task.ID(i + 1),
			Location: locs[i],
			Reward:   rng.Uniform(-0.5, 4), // occasionally non-positive, exercising the filter
			CtxIndex: i,
		})
	}
	return p
}

// TestRoundContextEquivalence is the cache-vs-direct equivalence oracle:
// for every solver, solving with the shared round context must produce a
// plan identical (bit-for-bit, via DeepEqual on float fields) to solving
// the same instance without one. The solver instances persist across
// trials so stale-scratch bugs surface too.
func TestRoundContextEquivalence(t *testing.T) {
	cached := []Algorithm{&DP{}, &Greedy{}, &TwoOptGreedy{}, &BruteForce{}, &Auto{}}
	fresh := func(i int) Algorithm {
		return []Algorithm{&DP{}, &Greedy{}, &TwoOptGreedy{}, &BruteForce{}, &Auto{}}[i]
	}
	rng := stats.NewRNG(909)
	for trial := 0; trial < 300; trial++ {
		withCtx := randomCtxProblem(rng)
		noCtx := withCtx
		noCtx.Ctx = nil
		for i, alg := range cached {
			got, err := alg.Select(withCtx)
			if err != nil {
				t.Fatalf("trial %d %s cached: %v", trial, alg.Name(), err)
			}
			want, err := fresh(i).Select(noCtx)
			if err != nil {
				t.Fatalf("trial %d %s direct: %v", trial, alg.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: cached plan %+v != direct plan %+v\nproblem %+v",
					trial, alg.Name(), got, want, noCtx)
			}
		}
	}
}

func TestNewRoundContextRejectsNonFinite(t *testing.T) {
	_, err := NewRoundContext([]geo.Point{geo.Pt(0, 0), geo.Pt(math.NaN(), 1)})
	if !errors.Is(err, ErrBadProblem) {
		t.Errorf("NaN location err = %v, want ErrBadProblem", err)
	}
	_, err = NewRoundContext([]geo.Point{geo.Pt(math.Inf(1), 0)})
	if !errors.Is(err, ErrBadProblem) {
		t.Errorf("Inf location err = %v, want ErrBadProblem", err)
	}
}

// TestRoundContextSizes checks contexts of different sizes, the empty one
// included: distances must always match direct computation.
func TestRoundContextSizes(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, n := range []int{5, 12, 3, 0, 8} {
		locs := make([]geo.Point, n)
		for i := range locs {
			locs[i] = geo.Pt(rng.Uniform(0, 100), rng.Uniform(0, 100))
		}
		ctx, err := NewRoundContext(locs)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.Len() != n {
			t.Fatalf("Len = %d, want %d", ctx.Len(), n)
		}
		for a := 0; a < n; a++ {
			if ctx.Location(a) != locs[a] {
				t.Fatalf("Location(%d) = %v, want %v", a, ctx.Location(a), locs[a])
			}
			for b := 0; b < n; b++ {
				if got, want := ctx.Dist(a, b), locs[a].Dist(locs[b]); got != want {
					t.Fatalf("n=%d Dist(%d,%d) = %v, want %v", n, a, b, got, want)
				}
			}
		}
	}
}

func TestValidateCtxLinkage(t *testing.T) {
	ctx, err := NewRoundContext([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)})
	if err != nil {
		t.Fatal(err)
	}
	base := Problem{
		Start: geo.Pt(1, 1),
		Ctx:   ctx,
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(0, 0), Reward: 1, CtxIndex: 0},
			{ID: 2, Location: geo.Pt(10, 0), Reward: 1, CtxIndex: 1},
		},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid linkage rejected: %v", err)
	}

	p := base
	p.Candidates = append([]Candidate(nil), base.Candidates...)
	p.Candidates[1].CtxIndex = 7
	if err := p.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("out-of-range CtxIndex err = %v, want ErrBadProblem", err)
	}

	p = base
	p.Candidates = append([]Candidate(nil), base.Candidates...)
	p.Candidates[0].Location = geo.Pt(5, 5)
	if err := p.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("mismatched location err = %v, want ErrBadProblem", err)
	}

	// CandidatesValid skips the per-candidate scan entirely.
	p.CandidatesValid = true
	if err := p.Validate(); err != nil {
		t.Errorf("CandidatesValid problem rejected: %v", err)
	}
}

// dupProblem builds a problem with m candidates carrying distinct ids
// 1..m at distinct locations.
func dupProblem(m int) Problem {
	p := Problem{Start: geo.Pt(0, 0)}
	for i := 0; i < m; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID: task.ID(i + 1), Location: geo.Pt(float64(i), 0), Reward: 1,
		})
	}
	return p
}

// TestValidateDuplicates covers both duplicate-detection paths — the
// allocation-free quadratic scan up to the threshold and the map fallback
// above it — pinning the boundary itself: threshold-1, the threshold
// (last instance on the quadratic path), and threshold+1 (first on the
// map path). Each size checks both the clean path and a duplicate
// spanning the first and last candidates, the pair a boundary off-by-one
// would miss first.
func TestValidateDuplicates(t *testing.T) {
	for _, m := range []int{5, dupScanThreshold - 1, dupScanThreshold, dupScanThreshold + 1, dupScanThreshold + 10} {
		p := dupProblem(m)
		if err := p.Validate(); err != nil {
			t.Fatalf("m=%d distinct ids rejected: %v", m, err)
		}
		p.Candidates[m-1].ID = p.Candidates[0].ID
		if err := p.Validate(); !errors.Is(err, ErrDuplicateCandidate) {
			t.Errorf("m=%d duplicate err = %v, want ErrDuplicateCandidate", m, err)
		}
	}
}

// TestValidateDupScanBoundaryAllocs pins the allocation contract at the
// path switch: the quadratic scan at exactly dupScanThreshold candidates
// allocates nothing, and the map fallback one past it is the only thing
// that allocates.
func TestValidateDupScanBoundaryAllocs(t *testing.T) {
	at := dupProblem(dupScanThreshold)
	if n := testing.AllocsPerRun(100, func() {
		if err := at.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate at m=%d allocates %v times per run, want 0 (quadratic path)", dupScanThreshold, n)
	}
	over := dupProblem(dupScanThreshold + 1)
	if n := testing.AllocsPerRun(100, func() {
		if err := over.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n == 0 {
		t.Logf("Validate at m=%d no longer allocates; map fallback gone?", dupScanThreshold+1)
	}
}

// TestValidateAllocFree pins the hot-loop property the round-level cache
// depends on: validating a small instance (with or without a context)
// allocates nothing.
func TestValidateAllocFree(t *testing.T) {
	rng := stats.NewRNG(77)
	p := randomCtxProblem(rng)
	for len(p.Candidates) == 0 {
		p = randomCtxProblem(rng)
	}
	noCtx := p
	noCtx.Ctx = nil
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate with ctx allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := noCtx.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate without ctx allocates %v times per run, want 0", n)
	}
}

// TestDPMaxTasksHardCap is the regression test for the silent-overflow
// bug: a huge configured MaxTasks used to send the solver toward 1<<m
// overflow (m >= 63) and int8 parent truncation (m > 127) instead of
// erroring. The cap is now clamped and oversized instances are rejected
// loudly.
func TestDPMaxTasksHardCap(t *testing.T) {
	problem := func(m int) Problem {
		p := Problem{Start: geo.Pt(0, 0), MaxDistance: 1e9, CostPerMeter: 1e-6}
		for i := 0; i < m; i++ {
			p.Candidates = append(p.Candidates, Candidate{
				ID: task.ID(i + 1), Location: geo.Pt(float64(i+1), 0), Reward: 1,
			})
		}
		return p
	}

	// Oversized configured cap + instance beyond the hard cap: loud error,
	// no attempt to allocate a 2^130-entry table.
	d := &DP{MaxTasks: 200}
	_, err := d.Select(problem(DPHardMaxTasks + 4))
	if !errors.Is(err, ErrTooManyTasks) {
		t.Fatalf("err = %v, want ErrTooManyTasks", err)
	}
	if !strings.Contains(err.Error(), "hard cap") {
		t.Errorf("error %q does not mention the hard cap", err)
	}

	// Oversized configured cap with a small instance still works (the
	// clamp, not the configuration, is what bounds the solve).
	pl, err := d.Select(problem(4))
	if err != nil {
		t.Fatalf("small instance under huge cap: %v", err)
	}
	if pl.Len() != 4 {
		t.Errorf("selected %d tasks, want 4", pl.Len())
	}

	// Auto with an absurd threshold routes oversized instances to greedy
	// instead of erroring.
	a := &Auto{Threshold: 1000}
	pl, err = a.Select(problem(DPHardMaxTasks + 4))
	if err != nil {
		t.Fatalf("auto fallback: %v", err)
	}
	if pl.Empty() {
		t.Error("auto fallback returned empty plan for an all-profitable instance")
	}
}
