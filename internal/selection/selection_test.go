package selection

import (
	"errors"
	"math"
	"strings"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

func simpleProblem() Problem {
	return Problem{
		Start:        geo.Pt(0, 0),
		MaxDistance:  1000,
		CostPerMeter: 0.002,
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(100, 0), Reward: 2},
			{ID: 2, Location: geo.Pt(200, 0), Reward: 2},
			{ID: 3, Location: geo.Pt(0, 300), Reward: 1},
		},
	}
}

func TestProblemValidate(t *testing.T) {
	p := simpleProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := simpleProblem()
	dup.Candidates = append(dup.Candidates, Candidate{ID: 1, Location: geo.Pt(5, 5), Reward: 1})
	if err := dup.Validate(); !errors.Is(err, ErrDuplicateCandidate) {
		t.Errorf("duplicate err = %v", err)
	}
	bad := simpleProblem()
	bad.Start = geo.Pt(math.NaN(), 0)
	if err := bad.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("NaN start err = %v", err)
	}
	bad = simpleProblem()
	bad.CostPerMeter = -1
	if err := bad.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("negative cost err = %v", err)
	}
	bad = simpleProblem()
	bad.Candidates[0].Reward = math.NaN()
	if err := bad.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("NaN reward err = %v", err)
	}
	bad = simpleProblem()
	bad.MaxDistance = math.NaN()
	if err := bad.Validate(); !errors.Is(err, ErrBadProblem) {
		t.Errorf("NaN budget err = %v", err)
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

// TestValidateAllocFree pins the hot-loop property per-call validation
// depends on: validating small random instances allocates nothing.
func TestValidateAllocFree(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		p := Problem{
			Start:           geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			MaxDistance:     rng.Uniform(0, 1500),
			CostPerMeter:    rng.Uniform(0, 0.01),
			PerTaskDistance: rng.Uniform(0, 150),
		}
		for i := rng.IntBetween(1, 12); i > 0; i-- {
			p.Candidates = append(p.Candidates, Candidate{
				ID:       task.ID(len(p.Candidates) + 1),
				Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
				Reward:   rng.Uniform(-0.5, 4),
			})
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("trial %d: Validate allocates %v times per run, want 0", trial, n)
		}
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

func TestPlanEmpty(t *testing.T) {
	var pl Plan
	if !pl.Empty() || pl.Len() != 0 {
		t.Error("zero Plan not empty")
	}
}

// checkPlanInvariants verifies the accounting identities every solver must
// maintain.
func checkPlanInvariants(t *testing.T, p Problem, pl Plan) {
	t.Helper()
	if pl.Empty() {
		if pl.Distance != 0 || pl.Reward != 0 || pl.Profit != 0 || len(pl.Path) != 0 {
			t.Fatalf("empty plan with non-zero accounting: %+v", pl)
		}
		return
	}
	if len(pl.Path) != len(pl.Order)+1 {
		t.Fatalf("path has %d points for %d tasks", len(pl.Path), len(pl.Order))
	}
	if !pl.Path[0].Equal(p.Start) {
		t.Fatalf("path does not start at user location")
	}
	if math.Abs(pl.Path.Length()-pl.Distance) > 1e-9 {
		t.Fatalf("Distance %v != path length %v", pl.Distance, pl.Path.Length())
	}
	if pl.Distance > p.MaxDistance+1e-9 {
		t.Fatalf("plan distance %v exceeds budget %v", pl.Distance, p.MaxDistance)
	}
	if math.Abs(pl.Cost-pl.Distance*p.CostPerMeter) > 1e-9 {
		t.Fatalf("Cost %v != distance*cpm", pl.Cost)
	}
	if math.Abs(pl.Profit-(pl.Reward-pl.Cost)) > 1e-9 {
		t.Fatalf("Profit %v != reward-cost", pl.Profit)
	}
	seen := map[task.ID]bool{}
	rewardByID := map[task.ID]float64{}
	for _, c := range p.Candidates {
		rewardByID[c.ID] = c.Reward
	}
	total := 0.0
	for _, id := range pl.Order {
		if seen[id] {
			t.Fatalf("task %d visited twice", id)
		}
		seen[id] = true
		r, ok := rewardByID[id]
		if !ok {
			t.Fatalf("plan visits unknown task %d", id)
		}
		total += r
	}
	if math.Abs(total-pl.Reward) > 1e-9 {
		t.Fatalf("Reward %v != sum of candidate rewards %v", pl.Reward, total)
	}
}

func TestDPSimple(t *testing.T) {
	p := simpleProblem()
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, p, pl)
	// Tasks 1 and 2 lie on a line (100 then 200 away); visiting both costs
	// 200 m = $0.4 for $4 reward. Task 3 costs a long detour for $1:
	// from (200,0) to (0,300) is ~360 m = $0.72 < $1, so the optimal plan
	// takes all three.
	if pl.Len() != 3 {
		t.Fatalf("DP selected %d tasks (%v), want 3", pl.Len(), pl.Order)
	}
	if pl.Order[0] != 1 || pl.Order[1] != 2 || pl.Order[2] != 3 {
		t.Errorf("DP order = %v, want [1 2 3]", pl.Order)
	}
}

func TestDPRespectsBudget(t *testing.T) {
	p := simpleProblem()
	p.MaxDistance = 150 // only task 1 reachable
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, p, pl)
	if pl.Len() != 1 || pl.Order[0] != 1 {
		t.Errorf("plan = %v, want just task 1", pl.Order)
	}
}

func TestDPEmptyWhenNothingProfitable(t *testing.T) {
	p := Problem{
		Start:        geo.Pt(0, 0),
		MaxDistance:  10000,
		CostPerMeter: 1, // $1/m: every task costs far more than it pays
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(100, 0), Reward: 2},
		},
	}
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Empty() {
		t.Errorf("unprofitable problem yielded plan %v with profit %v", pl.Order, pl.Profit)
	}
}

func TestDPZeroBudget(t *testing.T) {
	p := simpleProblem()
	p.MaxDistance = 0
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Empty() {
		t.Errorf("zero budget yielded %v", pl.Order)
	}
}

func TestDPTaskAtStartLocation(t *testing.T) {
	p := Problem{
		Start:        geo.Pt(50, 50),
		MaxDistance:  0,
		CostPerMeter: 0.002,
		Candidates:   []Candidate{{ID: 1, Location: geo.Pt(50, 50), Reward: 1}},
	}
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Len() != 1 || pl.Profit != 1 {
		t.Errorf("task at start: plan %v profit %v", pl.Order, pl.Profit)
	}
}

func TestDPNoCandidates(t *testing.T) {
	p := Problem{Start: geo.Pt(0, 0), MaxDistance: 100, CostPerMeter: 0.002}
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Empty() {
		t.Error("no candidates yielded a plan")
	}
}

func TestDPTooManyTasks(t *testing.T) {
	p := Problem{Start: geo.Pt(0, 0), MaxDistance: 1e9, CostPerMeter: 0}
	for i := 0; i < 12; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID: task.ID(i), Location: geo.Pt(float64(i), 0), Reward: 1,
		})
	}
	if _, err := (&DP{MaxTasks: 10}).Select(p); !errors.Is(err, ErrTooManyTasks) {
		t.Errorf("12 tasks with cap 10 err = %v", err)
	}
	// A higher cap accepts it.
	if _, err := (&DP{MaxTasks: 12}).Select(p); err != nil {
		t.Errorf("raised cap err = %v", err)
	}
}

func TestDPSkipsNegativeRewardTasks(t *testing.T) {
	p := simpleProblem()
	p.Candidates = append(p.Candidates, Candidate{ID: 9, Location: geo.Pt(10, 10), Reward: -5})
	pl, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pl.Order {
		if id == 9 {
			t.Error("DP selected a negative-reward task")
		}
	}
}

func TestGreedySimple(t *testing.T) {
	p := simpleProblem()
	pl, err := (&Greedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, p, pl)
	if pl.Empty() {
		t.Fatal("greedy found nothing")
	}
	// Greedy picks the highest marginal profit first: task 1 (2 - 0.2).
	if pl.Order[0] != 1 {
		t.Errorf("greedy first pick = %v, want 1", pl.Order[0])
	}
}

func TestGreedyStopsAtBudget(t *testing.T) {
	p := simpleProblem()
	p.MaxDistance = 250
	pl, err := (&Greedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, p, pl)
	if pl.Distance > 250 {
		t.Errorf("greedy overspent budget: %v", pl.Distance)
	}
}

func TestGreedyNeverNegativeProfit(t *testing.T) {
	p := Problem{
		Start:        geo.Pt(0, 0),
		MaxDistance:  10000,
		CostPerMeter: 0.05,
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(1000, 0), Reward: 2}, // costs 50 to reach
		},
	}
	pl, err := (&Greedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Empty() {
		t.Errorf("greedy accepted negative-profit task: %+v", pl)
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	// Two tasks with identical marginal profit; the closer one must win.
	// Equal rewards and equal distances would tie fully, so use equal
	// profit at different distances.
	p := Problem{
		Start:        geo.Pt(0, 0),
		MaxDistance:  1000,
		CostPerMeter: 0.01,
		Candidates: []Candidate{
			{ID: 1, Location: geo.Pt(200, 0), Reward: 3}, // gain 1
			{ID: 2, Location: geo.Pt(100, 0), Reward: 2}, // gain 1
		},
	}
	pl, err := (&Greedy{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Empty() || pl.Order[0] != 2 {
		t.Errorf("tie not broken toward closer task: %v", pl.Order)
	}
}

func TestAutoMatchesDPOnSmall(t *testing.T) {
	p := simpleProblem()
	auto, err := (&Auto{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auto.Profit-dp.Profit) > 1e-9 {
		t.Errorf("auto profit %v != dp %v", auto.Profit, dp.Profit)
	}
}

func TestAutoOverThresholdStaysHeuristic(t *testing.T) {
	// Free tasks with an effectively unlimited budget: over the exact
	// threshold Auto must dispatch a heuristic band (beam for 30 tasks,
	// greedy + 2-opt past the beam bound) that still collects everything.
	auto := &Auto{Threshold: 10}
	for _, n := range []int{30, DefaultAutoBeamMaxTasks + 8} {
		p := Problem{Start: geo.Pt(0, 0), MaxDistance: 1e9, CostPerMeter: 0}
		for i := 0; i < n; i++ {
			p.Candidates = append(p.Candidates, Candidate{
				ID: task.ID(i), Location: geo.Pt(float64(i*10), 0), Reward: 1,
			})
		}
		pl, err := auto.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Len() != n {
			t.Errorf("auto selected %d of %d free tasks", pl.Len(), n)
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		want string
	}{
		{&DP{}, "dp"},
		{&Greedy{}, "greedy"},
		{&BruteForce{}, "brute-force"},
		{&TwoOptGreedy{}, "greedy+2opt"},
		{&Beam{}, "beam"},
		{&Auto{}, "auto"},
	}
	for _, tt := range tests {
		if got := tt.alg.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}
