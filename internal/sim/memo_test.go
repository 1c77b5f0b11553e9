package sim

import (
	"reflect"
	"slices"
	"testing"

	"paydemand/internal/agent"
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// memoOracle recomputes every user's problem through the engine at
// UserPlanned and requires the problem runUsers reported to match it, so
// the empty-problem memo can never hide a candidate. It also counts the
// turns the memo served, from a copy of the memo taken at RoundStart:
// each user acts once a round, so its slot is unchanged until its own
// turn. At each of those turns, where runUsers settles the user without
// the solver, a fresh solver of the configured kind must solve the
// reported problem to exactly the reported plan, and that plan must be
// Plan{}.
type memoOracle struct {
	BaseObserver
	t     *testing.T
	s     *Simulation
	memo  []emptyProblem
	hits  int
	turns int
}

func (o *memoOracle) RoundStart(int, map[task.ID]float64) {
	o.memo = append(o.memo[:0], o.s.emptyMemo...)
}

func (o *memoOracle) UserPlanned(round, userID int, got selection.Problem, plan selection.Plan) {
	o.turns++
	slot := slices.IndexFunc(o.s.users, func(u *agent.User) bool { return u.ID == userID })
	if slot < 0 {
		o.t.Fatalf("round %d: user %d not in the population", round, userID)
	}
	u := o.s.users[slot]
	spec := o.s.specFor(u)
	if m := o.memo[slot]; m.user == u && sameSpec(m.spec, spec) {
		o.hits++
		fresh, err := o.s.cfg.NewAlgorithm()
		if err != nil {
			o.t.Fatal(err)
		}
		want, err := fresh.Select(got)
		if err != nil {
			o.t.Fatalf("round %d user %d: a fresh %s rejects the memo problem: %v", round, userID, fresh.Name(), err)
		}
		if !reflect.DeepEqual(plan, want) || !reflect.DeepEqual(plan, selection.Plan{}) {
			o.t.Fatalf("round %d user %d: memo plan %+v, a fresh %s solves %+v", round, userID, plan, fresh.Name(), want)
		}
	}
	want, _ := o.s.eng.ProblemInto(spec, u, nil)
	if got.Start != want.Start || got.MaxDistance != want.MaxDistance ||
		got.CostPerMeter != want.CostPerMeter || got.PerTaskDistance != want.PerTaskDistance ||
		got.CandidatesValid != want.CandidatesValid {
		o.t.Fatalf("round %d user %d: problem %+v, engine builds %+v", round, userID, got, want)
	}
	if !slices.Equal(got.Candidates, want.Candidates) {
		o.t.Fatalf("round %d user %d: candidates %v, engine offers %v", round, userID, got.Candidates, want.Candidates)
	}
}

// citySmall is the benchmark's city scenario scaled to a ninth of its
// area at the same task and user densities and reach: most problems are
// empty, as in the full-size city.
func citySmall() Config {
	return Config{
		Workload: workload.Config{
			Area:     geo.Square(1000),
			NumTasks: 111,
			NumUsers: 222,
			Required: 10,
		},
		Budget:         2800,
		UserTimeBudget: 25,
	}
}

func TestEmptyProblemMemoMatchesEngine(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Config)
		wantHits bool
	}{
		{"stationary city", func(*Config) {}, true},
		{"random waypoint", func(c *Config) { c.Mobility = MobilityRandomWaypoint }, false},
		{"churn", func(c *Config) { c.ChurnRate = 0.1 }, false},
		{"reset locations", func(c *Config) { c.ResetLocations = true }, false},
		{"time budget jitter", func(c *Config) { c.TimeBudgetJitter = 0.3 }, false},
		{"sensing time", func(c *Config) { c.SensingTime = 5 }, false},
		// Deadlines are at most workload.DefaultDeadlineMax = 15.
		{"rounds past deadlines", func(c *Config) { c.Rounds = 20 }, false},
		{"paper defaults", func(c *Config) { *c = smallConfig() }, false},
	}
	algs := []AlgorithmKind{AlgorithmDP, AlgorithmGreedy, AlgorithmAuto, AlgorithmTwoOpt, AlgorithmBeam}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, alg := range algs {
				t.Run(alg.String(), func(t *testing.T) {
					cfg := citySmall()
					tc.mutate(&cfg)
					cfg.Algorithm = alg
					for seed := int64(1); seed <= 3; seed++ {
						s, err := New(cfg, seed)
						if err != nil {
							t.Fatal(err)
						}
						o := &memoOracle{t: t, s: s}
						if _, err := s.Run(o); err != nil {
							t.Fatal(err)
						}
						if o.turns == 0 {
							t.Fatal("no user turns")
						}
						if tc.wantHits && o.hits == 0 {
							t.Errorf("seed %d: memo never hit in %d turns", seed, o.turns)
						}
						t.Logf("seed %d: memo hit %d of %d turns", seed, o.hits, o.turns)
					}
				})
			}
		})
	}
}

// TestChurnedUserIsNewObject holds churn to a fresh allocation per
// churned-in user: the initial users share one slab, and a newcomer
// written into its predecessor's slab entry would pass the empty-problem
// memo's pointer test for that slot and inherit the predecessor's memo.
func TestChurnedUserIsNewObject(t *testing.T) {
	cfg := smallConfig()
	cfg.ChurnRate = 0.3
	s, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	initial := slices.Clone(s.Users())
	ids := make([]int, len(initial))
	for i, u := range initial {
		ids[i] = u.ID
	}
	if _, err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	churned := 0
	for i, u := range s.Users() {
		if u.ID == ids[i] {
			continue
		}
		churned++
		if slices.Contains(initial, u) {
			t.Fatalf("slot %d: churned-in user %d reuses an initial user's object", i, u.ID)
		}
		if initial[i].ID != ids[i] {
			t.Fatalf("slot %d: departed user %d was overwritten by %d", i, ids[i], initial[i].ID)
		}
	}
	if churned == 0 {
		t.Fatal("no user churned")
	}
}
