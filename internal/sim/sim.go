package sim

import (
	"fmt"
	"math"
	"sync"

	"paydemand/internal/agent"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/workload"
)

// Observer receives the simulation's per-round events. All methods are
// optional no-ops in the embedded BaseObserver; the experiment harness uses
// observers to capture data the final metrics do not retain (for example
// per-user plans at a specific round for Fig. 5).
type Observer interface {
	// RoundStart fires after reward update and task publication. The
	// rewards map is engine-owned scratch recycled by the next round's
	// reprice: observers that keep it past the call must copy it.
	RoundStart(round int, rewards map[task.ID]float64)
	// UserPlanned fires after each user's task selection, whether or not
	// the plan is empty. The problem's Candidates slice is backed by a
	// simulation-owned buffer that is reused for the next user: it is valid
	// only for the duration of the call, so observers that retain it must
	// copy what they keep. The plan is the observer's to keep.
	UserPlanned(round int, userID int, problem selection.Problem, plan selection.Plan)
	// RoundEnd fires after all users have acted, with the round's stats.
	RoundEnd(round int, stats metrics.RoundStats)
}

// BaseObserver is a no-op Observer for embedding.
type BaseObserver struct{}

var _ Observer = BaseObserver{}

// RoundStart implements Observer.
func (BaseObserver) RoundStart(int, map[task.ID]float64) {}

// UserPlanned implements Observer.
func (BaseObserver) UserPlanned(int, int, selection.Problem, selection.Plan) {}

// RoundEnd implements Observer.
func (BaseObserver) RoundEnd(int, metrics.RoundStats) {}

// Simulation is one configured run over one generated scenario. Create
// with New (fresh scenario) or NewFromScenario (pre-built scenario), then
// call Run exactly once.
type Simulation struct {
	cfg      Config
	scenario workload.Scenario
	board    *task.Board
	users    []*agent.User
	mech     incentive.Mechanism
	mob      mobility.Model
	nextUser int
	// departedProfits holds the profits of users that churned out, so the
	// final profit accounting covers everyone who participated.
	departedProfits []float64
	ran             bool
	// emptyMemo holds, per user slot, the user and spec of that slot's
	// last selection problem when it was empty (user nil otherwise); see
	// runUsers. Churn replaces users in place, so its length is fixed.
	emptyMemo []emptyProblem

	// The engine, the solver, the RNG streams Run draws from and the
	// per-round buffers are borrowed from scratchPool for the trial and
	// handed back when Run returns; the pointer is then nil, so a later
	// use fails loudly.
	*trialScratch
}

// trialScratch is the storage a trial grows and leaves no trace in: the
// engine (open snapshot, reach and neighbor grids, task views, reward
// map, prices, neighbor counts), the selection solver's tables, the RNG
// streams Run draws from (the mechanism's, user order, location resets,
// churn and mobility; each keeps its 5 KB source), and the simulation's
// per-round buffers — the per-user candidate buffer (see
// Observer.UserPlanned for the resulting aliasing rules), the idle-time
// tracker, the user-location slice fed to the engine's reprice, and the
// user-order permutation (filled by PermInto with the exact draws Perm
// used to make). All of it is grow-only, so the steady-state round loop
// runs without allocations, and recycled across trials, so a warm trial
// allocates only what it keeps: plans, contribution records and its
// TrialResult. Engine.Reset, Config.algorithm and RNG.Reset clear every
// bit of it that a result could read, and the round loop writes the
// buffers before it reads them; TestRecycledScratchIsInvisible holds
// them to it.
type trialScratch struct {
	eng      engine.Engine
	alg      selection.Algorithm
	mechRNG  stats.RNG
	orderRNG stats.RNG
	resetRNG stats.RNG
	churnRNG stats.RNG
	mobRNG   stats.RNG
	candBuf  []selection.Candidate
	idleBuf  []float64
	userLocs []geo.Point
	permBuf  []int
}

// scratchPool recycles trialScratch across trials, on any goroutine. It
// is a sync.Pool rather than a selection.SolverPool so the garbage
// collector may drop an idle bundle: Auto's DP table alone reaches
// ~190 MB at m = 20.
var scratchPool = sync.Pool{New: func() any { return new(trialScratch) }}

// emptyProblem records a user whose selection problem came out empty for
// the given spec.
type emptyProblem struct {
	user *agent.User
	spec engine.Spec
}

// New generates a scenario from cfg.Workload with the given seed and
// prepares the simulation. The same (cfg, seed) pair always produces the
// same result, whatever trials ran before it on any goroutine.
func New(cfg Config, seed int64) (*Simulation, error) {
	root := stats.NewRNG(seed)
	scenarioRNG := root.Split()
	sc, err := workload.Generate(scenarioRNG, cfg.Workload)
	if err != nil {
		return nil, err
	}
	return NewFromScenario(cfg, sc, root.Int63())
}

// NewFromScenario prepares a simulation over a caller-supplied scenario.
// seed drives the remaining randomness (fixed-mechanism level draws, user
// ordering, optional location resets). The board, mechanism and users
// are the trial's own; the engine, the solver, the RNG streams Run draws
// from and the per-round buffers are borrowed from a pool that Run
// returns them to, reset but not presized, so they keep the capacity an
// earlier trial grew.
func NewFromScenario(cfg Config, sc workload.Scenario, seed int64) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Every stream is seeded with the next draw of root in a fixed
	// order, as root.Split would seed it. The streams Run draws from
	// live in the borrowed bundle below; the jitter stream, drawn only
	// here, is the trial's own.
	root := stats.NewRNG(seed)
	mechSeed := root.Int63()
	orderSeed := root.Int63()
	resetSeed := root.Int63()
	churnSeed := root.Int63()
	jitterRNG := root.Split()
	mobSeed := root.Int63()

	board, err := task.NewBoard(sc.Tasks)
	if err != nil {
		return nil, err
	}
	mech, err := cfg.buildMechanism(board.TotalRequired())
	if err != nil {
		return nil, err
	}
	mob, err := cfg.buildMobility(sc.Area)
	if err != nil {
		return nil, err
	}
	// The forecast handed to mobility-aware mechanisms shares the
	// simulation's mobility model, so forecast-driven pricing sees the
	// same movement assumptions that actually move the users.
	fc, err := mobility.NewForecast(mob, cfg.MobilityUncertainty, sc.Area, cfg.NeighborRadius, len(sc.UserLocations))
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:      cfg,
		scenario: sc,
		board:    board,
		mech:     mech,
		mob:      mob,
	}
	// The initial users live in one slab; churned-in users get their own
	// allocation (see runRound's churn step).
	slab := make([]agent.User, len(sc.UserLocations))
	s.users = make([]*agent.User, len(sc.UserLocations))
	s.emptyMemo = make([]emptyProblem, len(sc.UserLocations))
	for i, loc := range sc.UserLocations {
		u := &slab[i]
		s.newUser(u, loc, jitterRNG)
		if err := u.Validate(); err != nil {
			return nil, err
		}
		s.users[i] = u
	}
	// A Simulation that is never run keeps its bundle; the garbage
	// collector takes it with the Simulation.
	s.trialScratch = scratchPool.Get().(*trialScratch)
	s.mechRNG.Reset(mechSeed)
	s.orderRNG.Reset(orderSeed)
	s.resetRNG.Reset(resetSeed)
	s.churnRNG.Reset(churnSeed)
	s.mobRNG.Reset(mobSeed)
	if s.alg, err = cfg.algorithm(s.alg); err != nil {
		return nil, err
	}
	// Historical simulator behavior: unpriced open tasks stay in candidate
	// sets at reward 0 (the candidate count feeds Auto's algorithm
	// dispatch, so dropping them would change results). Every mechanism
	// input is supplied; a mechanism that does not use one ignores it, so
	// it costs nothing and consumes no randomness. The mechanism's stream
	// keeps its historical seed position, so the fixed mechanism's level
	// draws are unchanged.
	err = s.eng.Reset(engine.Config{
		Board:           board,
		Mechanism:       mech,
		Area:            sc.Area,
		NeighborRadius:  cfg.NeighborRadius,
		RequirePriced:   false,
		RNG:             &s.mechRNG,
		Budget:          cfg.Budget,
		BidCostPerMeter: cfg.CostPerMeter,
		Forecast:        fc,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// newUser fills u as a new user with the configured parameters, drawing
// the jittered time budget from rng.
func (s *Simulation) newUser(u *agent.User, loc geo.Point, rng *stats.RNG) {
	s.nextUser++
	*u = agent.User{
		ID:           s.nextUser,
		Location:     loc,
		Speed:        s.cfg.UserSpeed,
		TimeBudget:   s.cfg.UserTimeBudget,
		CostPerMeter: s.cfg.CostPerMeter,
	}
	if j := s.cfg.TimeBudgetJitter; j > 0 {
		u.TimeBudget = s.cfg.UserTimeBudget * rng.Uniform(1-j, 1+j)
	}
}

// Board exposes the task board (read-only use expected).
func (s *Simulation) Board() *task.Board { return s.board }

// Users exposes the user population (read-only use expected).
func (s *Simulation) Users() []*agent.User { return s.users }

// rounds resolves the configured horizon.
func (s *Simulation) rounds() int {
	if s.cfg.Rounds > 0 {
		return s.cfg.Rounds
	}
	return s.board.MaxDeadline()
}

// Run executes the simulation. obs may be nil. Run may be called once per
// Simulation; it returns an error on reuse. When Run returns, on success
// or error, the trial's engine, solver, RNG streams and per-round buffers
// go back to a pool for the next trial on any goroutine, and the
// Simulation drops them: Board and Users stay readable, but anything
// that needs the engine or a stream fails. The observer's aliasing
// rules are unchanged (see Observer): what a call may not keep past its
// return was already recycled by the next round or user, and is now
// also recycled by later trials.
func (s *Simulation) Run(obs Observer) (metrics.TrialResult, error) {
	if s.ran {
		return metrics.TrialResult{}, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	result, err := s.run(obs)
	scratchPool.Put(s.trialScratch)
	s.trialScratch = nil
	return result, err
}

// run is Run over the borrowed scratch.
func (s *Simulation) run(obs Observer) (metrics.TrialResult, error) {
	if obs == nil {
		obs = BaseObserver{}
	}
	// The mechanism may have been substituted after construction (tests
	// inject stubs); make sure the engine prices with the current one.
	s.eng.SetMechanism(s.mech)

	result := metrics.TrialResult{
		Mechanism: s.mech.Name(),
		Algorithm: s.alg.Name(),
		Users:     len(s.users),
		Tasks:     s.board.Len(),
	}
	horizon := s.rounds()
	// Rounds and UserProfits are sized once and stay nil when empty: a
	// trial's JSON is pinned byte for byte, and nil encodes as null.
	if horizon > 0 {
		result.Rounds = make([]metrics.RoundStats, 0, horizon)
	}
	for k := 1; k <= horizon; k++ {
		rs, err := s.runRound(k, obs)
		if err != nil {
			return metrics.TrialResult{}, fmt.Errorf("sim: round %d: %w", k, err)
		}
		result.Rounds = append(result.Rounds, rs)
		result.RoundsRun = k
	}

	s.eng.FinishTrial(&result)
	if n := len(s.departedProfits) + len(s.users); n > 0 {
		result.UserProfits = make([]float64, 0, n)
	}
	result.UserProfits = append(result.UserProfits, s.departedProfits...)
	for _, u := range s.users {
		result.UserProfits = append(result.UserProfits, u.Profit())
	}
	result.AvgUserProfit = stats.Mean(result.UserProfits)
	result.ProfitGini = stats.Gini(result.UserProfits)
	return result, nil
}

// runRound executes one sensing round: reward update, publication,
// distributed selection, upload, and bookkeeping. The engine runs the
// shared platform pipeline (snapshot, reprice, commit, stats); this
// driver owns what is simulation-specific — user agents, acting order,
// mobility, churn.
func (s *Simulation) runRound(k int, obs Observer) (metrics.RoundStats, error) {
	rs := metrics.RoundStats{Round: k}

	open := s.eng.BeginRound(k)
	rs.OpenTasks = len(open)
	if len(open) > 0 {
		s.userLocs = agent.LocationsInto(s.userLocs, s.users)
		if err := s.eng.Reprice(s.userLocs); err != nil {
			return rs, err
		}
		rs.MeanPublishedReward = s.eng.MeanPublishedReward()
	}
	rewards := s.eng.Rewards()
	obs.RoundStart(k, rewards)

	// idle tracks each user's leftover time this round, which feeds the
	// between-round mobility model.
	if cap(s.idleBuf) < len(s.users) {
		s.idleBuf = make([]float64, len(s.users))
	}
	idle := s.idleBuf[:len(s.users)]
	for i, u := range s.users {
		idle[i] = u.TimeBudget
	}
	if len(open) > 0 {
		// Users act in a random order each round; each sees the round's
		// published rewards but only tasks still accepting measurements at
		// its turn (the WST mode's redundant-completion drawback is thereby
		// bounded by phi per task). The permutation buffer is recycled
		// across rounds; PermInto consumes exactly the draws Perm made, so
		// seeded results are untouched.
		s.permBuf = s.orderRNG.PermInto(s.permBuf, len(s.users))
		if err := s.runUsers(k, s.permBuf, obs, &rs, idle); err != nil {
			return rs, err
		}
	}

	for i, u := range s.users {
		next := s.mob.Step(&s.mobRNG, u.ID, u.Location, idle[i], u.Speed)
		u.MoveTo(next)
	}

	if s.cfg.ResetLocations {
		area := s.scenario.Area
		for _, u := range s.users {
			u.MoveTo(geo.Pt(
				s.resetRNG.Uniform(area.Min.X, area.Max.X),
				s.resetRNG.Uniform(area.Min.Y, area.Max.Y),
			))
		}
	}
	if s.cfg.ChurnRate > 0 {
		area := s.scenario.Area
		for i, u := range s.users {
			if s.churnRNG.Float64() >= s.cfg.ChurnRate {
				continue
			}
			s.departedProfits = append(s.departedProfits, u.Profit())
			// A new object, never the departed user's slot: the empty-
			// problem memo tells users apart by pointer.
			nu := new(agent.User)
			s.newUser(nu, geo.Pt(
				s.churnRNG.Uniform(area.Min.X, area.Max.X),
				s.churnRNG.Uniform(area.Min.Y, area.Max.Y),
			), &s.churnRNG)
			s.users[i] = nu
		}
	}

	s.eng.FinishRoundStats(&rs)
	obs.RoundEnd(k, rs)
	return rs, nil
}

// runUsers executes the distributed-selection half of one round: each user
// in perm order solves its selection problem against the board as the
// earlier users' commits left it, then commits the resulting plan
// (records, profit, movement, idle-time bookkeeping).
//
// A user whose last problem was empty and whose spec is bitwise unchanged
// gets an empty problem without a call to the engine. This is sound
// because, within a simulation, every check the engine makes before
// offering a task only ever turns false over later turns: reach depends
// only on the spec and the task's fixed location; a task that is not
// OpenAt one turn stays closed, since it only completes or passes its
// deadline as the round rises, and every task of a later round's open
// snapshot was in the earlier one; the board's contribution records only
// grow; and the simulation never requires pricing. A churned-in
// user is a new *agent.User, so its slot misses.
//
// Such a user is also settled with the empty plan without a call to the
// solver. Every solver returns Plan{} for a valid problem with no
// candidates (the DP and the beam at m == 0, greedy and 2-opt from an
// empty order, Auto by dispatching to the DP), Select is a pure function
// of the problem, and no solver draws randomness. The memo entry is
// written before the first Select on its spec, and a Select error aborts
// the run, so a spec the memo serves has already passed Validate.
func (s *Simulation) runUsers(k int, perm []int, obs Observer, rs *metrics.RoundStats, idle []float64) error {
	for _, ui := range perm {
		u := s.users[ui]
		spec := s.specFor(u)
		memo := &s.emptyMemo[ui]
		if memo.user == u && sameSpec(memo.spec, spec) {
			obs.UserPlanned(k, u.ID, selection.Problem{
				Start:           spec.Start,
				MaxDistance:     spec.MaxDistance,
				CostPerMeter:    spec.CostPerMeter,
				PerTaskDistance: spec.PerTaskDistance,
				Candidates:      s.candBuf[:0],
				CandidatesValid: true,
			}, selection.Plan{})
			continue
		}
		problem := s.problemFor(spec, u)
		if len(problem.Candidates) == 0 {
			*memo = emptyProblem{user: u, spec: spec}
		} else {
			memo.user = nil
		}
		plan, err := s.alg.Select(problem)
		if err != nil {
			return fmt.Errorf("user %d: %w", u.ID, err)
		}
		obs.UserPlanned(k, u.ID, problem, plan)
		if plan.Empty() {
			continue
		}
		// n tasks committed means ids[:n] succeeded and, on error,
		// ids[n] is the task that failed. The board records each commit
		// under u.ID, which is all the engine checks (a churned-in user
		// gets a fresh ID), so the user keeps no done set of its own.
		n, err := s.eng.CommitPlan(u.ID, plan.Order)
		if err != nil {
			return fmt.Errorf("user %d task %d: %w", u.ID, plan.Order[n], err)
		}
		u.AddProfit(plan.Profit)
		rs.RoundProfit += plan.Profit
		rs.ActiveUsers++
		if end, ok := plan.Path.End(); ok {
			u.MoveTo(end)
		}
		spent := u.TravelTime(plan.Distance) + s.cfg.SensingTime*float64(plan.Len())
		idle[ui] -= spent
		if idle[ui] < 0 {
			idle[ui] = 0
		}
	}
	return nil
}

// problemFor assembles one user's selection problem for the current round
// over the shared s.candBuf scratch (see Observer.UserPlanned for the
// resulting aliasing rules). The engine supplies the round-dependent half
// — candidates in board order and this round's prices — so the simulation
// is deterministic under a seed.
func (s *Simulation) problemFor(spec engine.Spec, u *agent.User) selection.Problem {
	p, buf := s.eng.ProblemInto(spec, u, s.candBuf)
	s.candBuf = buf
	return p
}

// specFor is the user-dependent half of u's selection problem.
func (s *Simulation) specFor(u *agent.User) engine.Spec {
	return engine.Spec{
		Start:           u.Location,
		MaxDistance:     u.MaxTravelDistance(),
		CostPerMeter:    u.CostPerMeter,
		PerTaskDistance: s.cfg.SensingTime * u.Speed,
	}
}

// sameSpec reports whether two specs are bitwise equal, so a NaN or a
// signed zero never passes for another value.
func sameSpec(a, b engine.Spec) bool {
	return math.Float64bits(a.Start.X) == math.Float64bits(b.Start.X) &&
		math.Float64bits(a.Start.Y) == math.Float64bits(b.Start.Y) &&
		math.Float64bits(a.MaxDistance) == math.Float64bits(b.MaxDistance) &&
		math.Float64bits(a.CostPerMeter) == math.Float64bits(b.CostPerMeter) &&
		math.Float64bits(a.PerTaskDistance) == math.Float64bits(b.PerTaskDistance)
}

// Run is a convenience that builds and runs a simulation in one call.
func Run(cfg Config, seed int64) (metrics.TrialResult, error) {
	s, err := New(cfg, seed)
	if err != nil {
		return metrics.TrialResult{}, err
	}
	return s.Run(nil)
}
