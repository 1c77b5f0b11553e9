package sim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// smallConfig is a fast scenario for unit tests: 8 tasks, 30 users.
func smallConfig() Config {
	return Config{
		Workload: workload.Config{
			NumTasks: 8,
			NumUsers: 30,
			Required: 5,
		},
		Algorithm: AlgorithmGreedy,
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	res, err := Run(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "on-demand" || res.Algorithm != "greedy" {
		t.Errorf("identity: %s/%s", res.Mechanism, res.Algorithm)
	}
	if res.Users != 30 || res.Tasks != 8 {
		t.Errorf("populations: %d users %d tasks", res.Users, res.Tasks)
	}
	if res.RoundsRun < 5 || res.RoundsRun > 15 {
		t.Errorf("RoundsRun = %d, want within deadline range", res.RoundsRun)
	}
	if len(res.Rounds) != res.RoundsRun {
		t.Errorf("rounds series length %d != RoundsRun %d", len(res.Rounds), res.RoundsRun)
	}
	if res.Coverage < 0 || res.Coverage > 1 {
		t.Errorf("Coverage = %v", res.Coverage)
	}
	if res.OverallCompleteness < 0 || res.OverallCompleteness > 1 {
		t.Errorf("OverallCompleteness = %v", res.OverallCompleteness)
	}
	if res.AvgMeasurements > 5 {
		t.Errorf("AvgMeasurements %v exceeds phi", res.AvgMeasurements)
	}
	if len(res.UserProfits) != 30 {
		t.Errorf("UserProfits = %d entries", len(res.UserProfits))
	}
	for i, p := range res.UserProfits {
		if p < 0 {
			t.Errorf("user %d has negative profit %v (irrational)", i+1, p)
		}
	}
	if res.TaskGini < 0 || res.TaskGini >= 1 {
		t.Errorf("TaskGini = %v", res.TaskGini)
	}
	if res.ProfitGini < 0 || res.ProfitGini >= 1 {
		t.Errorf("ProfitGini = %v", res.ProfitGini)
	}
}

func TestGiniBalanceOrdering(t *testing.T) {
	// The on-demand mechanism balances participation, so its task Gini
	// must come in below the fixed mechanism's (mirrors Fig. 9(a)'s
	// variance story). Average over a few seeds to dodge noise.
	meanGini := func(mech MechanismKind) float64 {
		total := 0.0
		const n = 5
		for seed := int64(0); seed < n; seed++ {
			// Paper-default scenario: rewards are budget-tight, so remote
			// tasks genuinely starve under fixed pricing.
			cfg := Config{Mechanism: mech}
			cfg.Workload.NumUsers = 60
			res, err := Run(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			total += res.TaskGini
		}
		return total / n
	}
	onDemand := meanGini(MechanismOnDemand)
	fixed := meanGini(MechanismFixed)
	if onDemand >= fixed {
		t.Errorf("on-demand task gini %v >= fixed %v", onDemand, fixed)
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	a, err := Run(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Coverage != b.Coverage ||
		a.TotalMeasurements != b.TotalMeasurements ||
		a.TotalRewardPaid != b.TotalRewardPaid ||
		a.AvgUserProfit != b.AvgUserProfit {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Errorf("round %d diverged: %+v vs %+v", i+1, a.Rounds[i], b.Rounds[i])
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	a, err := Run(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMeasurements == b.TotalMeasurements && a.TotalRewardPaid == b.TotalRewardPaid &&
		a.AvgUserProfit == b.AvgUserProfit {
		t.Error("different seeds produced identical results; suspicious")
	}
}

func TestRunInvariants(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// No task may exceed its required measurement count, and no user may
	// contribute twice to the same task (checked by Record, but verify the
	// final state).
	for _, st := range s.Board().States() {
		if st.Received() > st.Required {
			t.Errorf("task %d has %d > %d measurements", st.ID, st.Received(), st.Required)
		}
		if st.Contributors() != st.Received() {
			t.Errorf("task %d contributors %d != received %d", st.ID, st.Contributors(), st.Received())
		}
	}
	// Per-round coverage and completeness are monotone non-decreasing.
	prevCov, prevComp := 0.0, 0.0
	totalNew := 0
	for _, r := range res.Rounds {
		if r.Coverage < prevCov-1e-12 {
			t.Errorf("coverage decreased at round %d", r.Round)
		}
		if r.Completeness < prevComp-1e-12 {
			t.Errorf("completeness decreased at round %d", r.Round)
		}
		prevCov, prevComp = r.Coverage, r.Completeness
		totalNew += r.NewMeasurements
		if r.TotalMeasurements != totalNew {
			t.Errorf("round %d cumulative measurements %d != sum of new %d", r.Round, r.TotalMeasurements, totalNew)
		}
	}
	if totalNew != res.TotalMeasurements {
		t.Errorf("sum of per-round measurements %d != final total %d", totalNew, res.TotalMeasurements)
	}
	// Reward accounting: total paid equals the board's ledger, and the sum
	// of user profits is total reward minus travel costs, so it cannot
	// exceed total reward paid.
	sumProfit := 0.0
	for _, p := range res.UserProfits {
		sumProfit += p
	}
	if sumProfit > res.TotalRewardPaid+1e-9 {
		t.Errorf("sum of profits %v exceeds rewards paid %v", sumProfit, res.TotalRewardPaid)
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	// The Eq. 8/9 constraint: even in the worst case the platform never
	// pays more than B. Run several seeds and mechanisms.
	for _, mech := range []MechanismKind{MechanismOnDemand, MechanismFixed} {
		for seed := int64(0); seed < 5; seed++ {
			cfg := smallConfig()
			cfg.Mechanism = mech
			cfg.Budget = 200
			res, err := Run(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalRewardPaid > cfg.Budget+1e-9 {
				t.Errorf("%v seed %d: paid %v > budget %v", mech, seed, res.TotalRewardPaid, cfg.Budget)
			}
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestAllMechanismsRun(t *testing.T) {
	kinds := []MechanismKind{
		MechanismOnDemand, MechanismFixed, MechanismSteered,
		MechanismSteeredRaw, MechanismEqualWeights, MechanismDeadlineOnly,
		MechanismProgressOnly, MechanismNeighborsOnly,
	}
	for _, k := range kinds {
		cfg := smallConfig()
		cfg.Mechanism = k
		res, err := Run(cfg, 3)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Mechanism == "" {
			t.Errorf("%v: empty mechanism name", k)
		}
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	for _, a := range []AlgorithmKind{AlgorithmDP, AlgorithmGreedy, AlgorithmAuto, AlgorithmTwoOpt, AlgorithmBeam} {
		cfg := smallConfig()
		cfg.Algorithm = a
		res, err := Run(cfg, 3)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if res.Algorithm != a.String() {
			t.Errorf("algorithm name %q != kind %q", res.Algorithm, a.String())
		}
	}
}

// dpVsGreedyObserver re-solves every user's problem with greedy and checks
// the DP plan dominates it instance by instance.
type dpVsGreedyObserver struct {
	BaseObserver
	t        *testing.T
	problems int
}

func (o *dpVsGreedyObserver) UserPlanned(round, userID int, p selection.Problem, plan selection.Plan) {
	o.problems++
	gr, err := (&selection.Greedy{}).Select(p)
	if err != nil {
		o.t.Fatalf("round %d user %d: greedy: %v", round, userID, err)
	}
	if plan.Profit < gr.Profit-1e-9 {
		o.t.Errorf("round %d user %d: DP profit %v < greedy %v", round, userID, plan.Profit, gr.Profit)
	}
}

func TestDPBeatsGreedyOnProfit(t *testing.T) {
	// On every individual selection instance the optimal DP plan must earn
	// at least the greedy plan's profit (population totals are NOT ordered
	// because task availability evolves differently).
	cfg := smallConfig()
	cfg.Algorithm = AlgorithmDP
	s, err := New(cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	obs := &dpVsGreedyObserver{t: t}
	if _, err := s.Run(obs); err != nil {
		t.Fatal(err)
	}
	if obs.problems == 0 {
		t.Error("observer saw no selection problems")
	}
}

func TestResetLocations(t *testing.T) {
	cfg := smallConfig()
	cfg.ResetLocations = true
	s, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	initial := make(map[int]struct{ x, y float64 })
	for _, u := range s.Users() {
		initial[u.ID] = struct{ x, y float64 }{u.Location.X, u.Location.Y}
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, u := range s.Users() {
		if loc := initial[u.ID]; loc.x != u.Location.X || loc.y != u.Location.Y {
			moved++
		}
	}
	if moved == 0 {
		t.Error("ResetLocations left every user in place")
	}
}

func TestRoundsOverride(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 3
	res, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun != 3 {
		t.Errorf("RoundsRun = %d, want 3", res.RoundsRun)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
		{"negative radius", func(c *Config) { c.NeighborRadius = -5 }},
		{"negative speed", func(c *Config) { c.UserSpeed = -1 }},
		{"negative budget", func(c *Config) { c.Budget = -100 }},
		{"negative lambda", func(c *Config) { c.RewardLambda = -0.5 }},
		{"negative levels", func(c *Config) { c.DemandLevels = -2 }},
		{"bad workload", func(c *Config) { c.Workload.NumUsers = -1 }},
		// A negative beam width would reach the solver as a beam keeping
		// no states; a negative improve count as a nonsense polish loop.
		// Both must fail loudly here, not degrade silently downstream.
		{"negative beam width", func(c *Config) { c.BeamWidth = -1 }},
		{"negative beam improve", func(c *Config) { c.BeamImprove = -3 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := New(cfg, 1); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

// TestShardsValidation pins the compatibility contract of the removed
// geo-sharded engine: a config naming any non-zero shard count — set in
// code or loaded from saved JSON — fails loudly instead of silently
// running the single engine, and zero (the field's omitted value) runs.
func TestShardsValidation(t *testing.T) {
	for _, shards := range []int{-1, 1, 4} {
		cfg := smallConfig()
		cfg.Shards = shards
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "geo-sharded engine was removed") {
			t.Errorf("shards=%d: Validate err = %v, want the removed-engine error", shards, err)
		}
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("shards=%d: New accepted the config", shards)
		}
	}
	var saved Config
	if err := json.Unmarshal([]byte(`{"workload":{"num_users":10,"num_tasks":5,"required":2},"shards":4}`), &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Shards != 4 {
		t.Fatalf("shards field not decoded: %+v", saved)
	}
	if err := saved.Validate(); err == nil {
		t.Error("saved JSON config naming shards validated")
	}
	cfg := smallConfig()
	cfg.Rounds = 2
	s, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if MechanismOnDemand.String() != "on-demand" || MechanismFixed.String() != "fixed" ||
		MechanismSteered.String() != "steered" || MechanismEqualWeights.String() != "equal-weights" {
		t.Error("mechanism strings wrong")
	}
	if MechanismKind(99).String() != "MechanismKind(99)" {
		t.Error("unknown mechanism string wrong")
	}
	if AlgorithmDP.String() != "dp" || AlgorithmGreedy.String() != "greedy" ||
		AlgorithmAuto.String() != "auto" || AlgorithmTwoOpt.String() != "greedy+2opt" ||
		AlgorithmBeam.String() != "beam" {
		t.Error("algorithm strings wrong")
	}
	if AlgorithmKind(99).String() != "AlgorithmKind(99)" {
		t.Error("unknown algorithm string wrong")
	}
}

// recordingObserver captures events for observer tests.
type recordingObserver struct {
	BaseObserver
	roundStarts []int
	plans       int
	roundEnds   []metrics.RoundStats
}

func (r *recordingObserver) RoundStart(round int, _ map[task.ID]float64) {
	r.roundStarts = append(r.roundStarts, round)
}

func (r *recordingObserver) UserPlanned(_ int, _ int, _ selection.Problem, _ selection.Plan) {
	r.plans++
}

func (r *recordingObserver) RoundEnd(_ int, rs metrics.RoundStats) {
	r.roundEnds = append(r.roundEnds, rs)
}

func TestObserverReceivesEvents(t *testing.T) {
	s, err := New(smallConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	res, err := s.Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.roundStarts) != res.RoundsRun {
		t.Errorf("RoundStart fired %d times for %d rounds", len(obs.roundStarts), res.RoundsRun)
	}
	if len(obs.roundEnds) != res.RoundsRun {
		t.Errorf("RoundEnd fired %d times for %d rounds", len(obs.roundEnds), res.RoundsRun)
	}
	if obs.plans == 0 {
		t.Error("UserPlanned never fired")
	}
	for i, rs := range obs.roundEnds {
		if rs != res.Rounds[i] {
			t.Errorf("observer round %d stats differ from result", i+1)
		}
	}
}

func TestMeanPublishedRewardWithinSchemeRange(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	// With budget 1000 over 8 tasks x 5 measurements = 40 required,
	// r0 = 1000/40 - 0.5*4 = 23, max = 25.
	for _, r := range res.Rounds {
		if r.OpenTasks == 0 {
			continue
		}
		if r.MeanPublishedReward < 23-1e-9 || r.MeanPublishedReward > 25+1e-9 {
			t.Errorf("round %d mean reward %v outside [23, 25]", r.Round, r.MeanPublishedReward)
		}
	}
}

func TestUserProfitsMatchLedger(t *testing.T) {
	s, err := New(smallConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	roundProfitSum := 0.0
	for _, r := range res.Rounds {
		roundProfitSum += r.RoundProfit
	}
	userProfitSum := 0.0
	for _, p := range res.UserProfits {
		userProfitSum += p
	}
	if math.Abs(roundProfitSum-userProfitSum) > 1e-9 {
		t.Errorf("round profit sum %v != user profit sum %v", roundProfitSum, userProfitSum)
	}
}
