package incentive

import (
	"math"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// price runs one round of m into a fresh reward map.
func price(m Mechanism, in *RoundInput) (map[task.ID]float64, error) {
	out := make(map[task.ID]float64, len(in.Views))
	err := m.RewardsInto(in, out)
	return out, err
}

func testViews() []TaskView {
	return []TaskView{
		{ID: 1, Location: geo.Pt(0, 0), Deadline: 10, Required: 20, Received: 0, Neighbors: 0},
		{ID: 2, Location: geo.Pt(100, 0), Deadline: 10, Required: 20, Received: 10, Neighbors: 5},
		{ID: 3, Location: geo.Pt(0, 100), Deadline: 2, Required: 20, Received: 19, Neighbors: 10},
	}
}

func TestTaskViewProgress(t *testing.T) {
	v := TaskView{Required: 20, Received: 5}
	if got := v.Progress(); got != 0.25 {
		t.Errorf("Progress = %v, want 0.25", got)
	}
	v.Received = 25
	if got := v.Progress(); got != 1 {
		t.Errorf("Progress capped = %v, want 1", got)
	}
	if got := (TaskView{Required: 0}).Progress(); got != 1 {
		t.Errorf("Progress with zero required = %v, want 1", got)
	}
}

func TestOnDemandRewardsWithinSchemeRange(t *testing.T) {
	scheme := paperScheme(t)
	m, err := NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "on-demand" {
		t.Errorf("Name = %q", m.Name())
	}
	rewards, err := price(m, &RoundInput{Round: 1, Views: testViews()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rewards) != 3 {
		t.Fatalf("rewards for %d tasks", len(rewards))
	}
	for id, r := range rewards {
		if r < scheme.R0-1e-12 || r > scheme.MaxReward()+1e-12 {
			t.Errorf("task %d reward %v outside [%v, %v]", id, r, scheme.R0, scheme.MaxReward())
		}
	}
}

func TestOnDemandDirectionality(t *testing.T) {
	// A starving task (no progress, no neighbors, near deadline) must be
	// paid at least as much as a nearly-done, well-surrounded task.
	m, err := NewPaperOnDemand(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	views := []TaskView{
		{ID: 1, Deadline: 2, Required: 20, Received: 0, Neighbors: 0},
		{ID: 2, Deadline: 15, Required: 20, Received: 19, Neighbors: 10},
	}
	rewards, err := price(m, &RoundInput{Round: 2, Views: views})
	if err != nil {
		t.Fatal(err)
	}
	if rewards[1] <= rewards[2] {
		t.Errorf("starving task reward %v <= satisfied task reward %v", rewards[1], rewards[2])
	}
}

func TestOnDemandDemandLevels(t *testing.T) {
	m, err := NewPaperOnDemand(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	// Eqs. 2-6 straight from the demand package: each view's level.
	views := testViews()
	inputs := make([]demand.Inputs, len(views))
	for i, v := range views {
		inputs[i] = demand.Inputs{Deadline: v.Deadline, Progress: v.Progress(), Neighbors: v.Neighbors}
	}
	norm, err := demand.DefaultConfig().NormalizedDemandsInto(2, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewards, err := price(m, &RoundInput{Round: 2, Views: views})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		lvl := m.scheme.Levels.Level(norm[i])
		if lvl < 1 || lvl > 5 {
			t.Errorf("task %d level %d outside 1..5", v.ID, lvl)
		}
		// The published reward must equal scheme.Reward(level) (Eq. 7)
		// exactly.
		if got, want := rewards[v.ID], m.scheme.Reward(lvl); got != want {
			t.Errorf("task %d reward %v != Reward(level %d) = %v", v.ID, got, lvl, want)
		}
	}
}

func TestNewOnDemandRejectsInvalid(t *testing.T) {
	bad := demand.Config{Weights: [3]float64{1, 1, 1}, Lambda1: 1, Lambda2: 1, Lambda3: 1}
	if _, err := NewOnDemand(bad, paperScheme(t)); err == nil {
		t.Error("invalid demand config accepted")
	}
	good := demand.DefaultConfig()
	if _, err := NewOnDemand(good, RewardScheme{}); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestFixedRewardsStableAcrossRounds(t *testing.T) {
	m, err := NewFixed(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "fixed" {
		t.Errorf("Name = %q", m.Name())
	}
	rng := stats.NewRNG(42)
	views := testViews()
	r1, err := price(m, &RoundInput{Round: 1, Views: views, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the views heavily; fixed rewards must not move.
	views[0].Received = 19
	views[1].Neighbors = 0
	r2, err := price(m, &RoundInput{Round: 7, Views: views, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	for id := range r1 {
		if r1[id] != r2[id] {
			t.Errorf("task %d fixed reward changed: %v -> %v", id, r1[id], r2[id])
		}
	}
}

func TestFixedLevelsWithinRange(t *testing.T) {
	m, err := NewFixed(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	views := make([]TaskView, 100)
	for i := range views {
		views[i] = TaskView{ID: task.ID(i), Deadline: 10, Required: 20}
	}
	rewards, err := price(m, &RoundInput{Round: 1, Views: views, RNG: stats.NewRNG(7)})
	if err != nil {
		t.Fatal(err)
	}
	// Each published reward is Eq. 7 of one level in 1..5.
	levelOf := map[float64]int{}
	for lvl := 1; lvl <= 5; lvl++ {
		levelOf[m.scheme.Reward(lvl)] = lvl
	}
	seen := map[int]bool{}
	for i := range views {
		r, ok := rewards[task.ID(i)]
		if !ok {
			t.Fatalf("task %d has no reward", i)
		}
		lvl, ok := levelOf[r]
		if !ok {
			t.Fatalf("task %d reward %v is no level's reward", i, r)
		}
		seen[lvl] = true
	}
	if len(seen) < 3 {
		t.Errorf("only %d distinct levels in 100 draws; RNG suspicious", len(seen))
	}
}

func TestNewFixedRejectsInvalidScheme(t *testing.T) {
	if _, err := NewFixed(RewardScheme{}); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestSteeredPaperRange(t *testing.T) {
	m := NewSteered()
	if m.Name() != "steered" {
		t.Errorf("Name = %q", m.Name())
	}
	// Paper: reward varies in [5, 25] with Rc=5, mu=100, delta=0.2.
	if got := m.RewardAt(0); math.Abs(got-25) > 1e-9 {
		t.Errorf("RewardAt(0) = %v, want 25", got)
	}
	if got := m.RewardAt(1000); math.Abs(got-5) > 1e-6 {
		t.Errorf("RewardAt(inf) = %v, want -> 5", got)
	}
	prev := math.Inf(1)
	for x := 0; x < 30; x++ {
		r := m.RewardAt(x)
		if r >= prev {
			t.Fatalf("steered reward not strictly decreasing at x=%d", x)
		}
		if r < m.Rc-1e-9 || r > m.Rc+m.Mu*m.Delta+1e-9 {
			t.Fatalf("steered reward %v out of range at x=%d", r, x)
		}
		prev = r
	}
}

func TestSteeredQuality(t *testing.T) {
	m := NewSteered()
	if got := m.Quality(0); got != 0 {
		t.Errorf("Quality(0) = %v", got)
	}
	if got := m.Quality(1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Quality(1) = %v, want 0.2", got)
	}
	if got := m.Quality(-5); got != 0 {
		t.Errorf("Quality(-5) = %v", got)
	}
	// Quality is increasing and bounded by 1.
	prev := -1.0
	for x := 0; x < 50; x++ {
		q := m.Quality(x)
		if q <= prev || q > 1 {
			t.Fatalf("Quality not increasing/bounded at x=%d: %v", x, q)
		}
		prev = q
	}
}

func TestSteeredRewards(t *testing.T) {
	m := NewSteered()
	rewards, err := price(m, &RoundInput{Round: 3, Views: testViews()})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 has 0 measurements -> max reward; task 3 has 19 -> near Rc.
	if rewards[1] <= rewards[2] || rewards[2] <= rewards[3] {
		t.Errorf("steered rewards not decreasing in received count: %v", rewards)
	}
}

func TestBudgetScaledSteered(t *testing.T) {
	m, err := NewBudgetScaledSteered(2.5)
	if err != nil {
		t.Fatal(err)
	}
	// Preserves the paper's 1:5 base-to-peak ratio at the new scale.
	if math.Abs(m.RewardAt(0)-2.5) > 1e-9 {
		t.Errorf("peak reward = %v, want 2.5", m.RewardAt(0))
	}
	if math.Abs(m.Rc-0.5) > 1e-9 {
		t.Errorf("Rc = %v, want 0.5", m.Rc)
	}
	if math.Abs(m.Mu-10) > 1e-9 {
		t.Errorf("Mu = %v, want 10", m.Mu)
	}
	if m.Delta != DefaultSteeredDelta {
		t.Errorf("Delta = %v", m.Delta)
	}
	if _, err := NewBudgetScaledSteered(0); err == nil {
		t.Error("zero max reward accepted")
	}
	if _, err := NewBudgetScaledSteered(-3); err == nil {
		t.Error("negative max reward accepted")
	}
}

func TestSteeredValidate(t *testing.T) {
	bad := &Steered{Rc: 5, Mu: 100, Delta: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("delta > 1 accepted")
	}
	if _, err := price(bad, &RoundInput{Round: 1, Views: testViews()}); err == nil {
		t.Error("RewardsInto with bad params succeeded")
	}
	bad2 := &Steered{Rc: -1, Mu: 100, Delta: 0.2}
	if err := bad2.Validate(); err == nil {
		t.Error("negative Rc accepted")
	}
	bad3 := &Steered{Rc: 5, Mu: -1, Delta: 0.2}
	if err := bad3.Validate(); err == nil {
		t.Error("negative mu accepted")
	}
}

func TestPresets(t *testing.T) {
	scheme := paperScheme(t)
	eq, err := NewEqualWeightsOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	w := eq.demandCfg.Weights
	if math.Abs(w[0]-w[1]) > 1e-12 || math.Abs(w[1]-w[2]) > 1e-12 {
		t.Errorf("equal weights preset = %v", w)
	}
	for _, f := range []SingleFactor{FactorDeadline, FactorProgress, FactorNeighbors} {
		m, err := NewSingleFactorOnDemand(f, scheme)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		sum := 0.0
		for _, x := range m.demandCfg.Weights {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%v weights sum = %v", f, sum)
		}
	}
	if _, err := NewSingleFactorOnDemand(SingleFactor(9), scheme); err == nil {
		t.Error("unknown factor accepted")
	}
}

func TestSingleFactorString(t *testing.T) {
	if FactorDeadline.String() != "deadline-only" ||
		FactorProgress.String() != "progress-only" ||
		FactorNeighbors.String() != "neighbors-only" {
		t.Error("SingleFactor strings wrong")
	}
	if SingleFactor(9).String() != "SingleFactor(9)" {
		t.Error("unknown factor string wrong")
	}
}

func TestPaperOnDemandUsesAHPWeights(t *testing.T) {
	m, err := NewPaperOnDemand(paperScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	w := m.demandCfg.Weights
	want := [3]float64{0.648, 0.230, 0.122}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 0.001 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}
