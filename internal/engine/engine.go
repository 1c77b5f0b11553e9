// Package engine implements the canonical round state machine of the
// crowdsensing platform: the per-round pipeline of open-task snapshot,
// neighbor counting, demand-based repricing (Eqs. 3-7), shared solver
// context construction, measurement commit with double-fill protection,
// and round/trial statistics (Sec. VI).
//
// The engine owns platform state and scratch; frontends own behavior.
// Three drivers sit on top of it:
//
//   - internal/sim drives it with simulated user agents (random acting
//     order, speculative parallel selection, mobility, churn);
//   - internal/server drives it under a mutex from HTTP handlers, with
//     workers registering, planning, and uploading over the wire;
//   - internal/sat drives the snapshot/settle/stats stages around a
//     centralized reverse auction instead of published prices.
//
// All per-round storage — the open-task snapshot and its locations, the
// neighbor grid, the mechanism's task views, the assembled mechanism input
// (bids, budget, forecast), and the published reward map — is grow-only
// scratch recycled across rounds, so a steady-state Reprice allocates
// nothing at all: mechanisms write into an engine-owned map through
// RewardsInto, and the engine republishes that map each round. The shared
// selection.RoundContext is not per-round at all: it is one immutable
// distance table per board (see context.go). Because of the scratch, an
// Engine is NOT safe for concurrent mutation: drivers serialize
// BeginRound/Reprice/Commit calls (the simulator is single-threaded
// between rounds; the HTTP platform holds its mutex). Read-only
// accessors, ProblemInto included, are safe to call concurrently between
// mutations, which is what the simulator's speculative workers do.
// Problems keep reading the shared context safely after the driver's lock
// is released, because nothing ever writes it.
package engine

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// Config parameterizes an engine.
type Config struct {
	// Board is the campaign's task board. Required.
	Board *task.Board
	// Mechanism prices the open tasks each round. It may be nil for
	// drivers that never reprice (the SAT auction pays bids, not
	// published rewards); Reprice then fails.
	Mechanism incentive.Mechanism
	// Area bounds the sensing region; the neighbor index is built over it.
	Area geo.Rect
	// NeighborRadius is the radius R of the neighbor-count demand factor.
	NeighborRadius float64
	// DisableContext skips building the board's shared solver context
	// and validates task locations directly instead. Selection results
	// are bit-for-bit identical either way; the flag exists for the
	// simulator's equivalence ablation.
	DisableContext bool
	// RequirePriced drops tasks without a published reward from candidate
	// sets built by ProblemInto. The HTTP platform sets it (an unpriced
	// task is not published on the wire); the simulator keeps the
	// historical behavior of offering unpriced open tasks at reward 0.
	RequirePriced bool

	// The remaining fields back the mechanism capabilities (see
	// incentive.Capabilities). Each is required exactly when the
	// mechanism's Requires() mask declares the matching capability; New
	// and Reprice reject configurations that cannot supply a declared
	// capability.

	// RNG is the mechanism's seeded stream (incentive.CapRNG).
	RNG *stats.RNG
	// Budget is the campaign budget handed to budget-aware mechanisms
	// (incentive.CapBudget).
	Budget float64
	// BidCostPerMeter converts a worker's travel estimate — the distance
	// from its location to the nearest open task — into the claimed cost
	// of its bid (incentive.CapBids).
	BidCostPerMeter float64
	// Forecast predicts future neighbor counts for mobility-aware
	// mechanisms (incentive.CapMobility).
	Forecast incentive.ForecastProvider
}

// Engine is the round state machine. Create with New; see the package
// comment for the concurrency contract.
type Engine struct {
	cfg   Config
	board *task.Board

	// states is the board's task list in board order, captured when the
	// board is bound. A task's index in it is its board position.
	states []*task.State

	// Published round state, valid from a Reprice until the next
	// BeginRound/Clear. open is the snapshot in board order; openLocs and
	// openPos hold each snapshot entry's location and board position.
	round    int
	open     []*task.State
	openLocs []geo.Point
	openPos  []int
	rewards  map[task.ID]float64
	mean     float64

	// Grow-only per-round scratch.
	grid      geo.GridIndex
	viewBuf   []incentive.TaskView
	closed    []task.ID
	in        incentive.RoundInput
	bidBuf    []incentive.Bid
	rewardBuf map[task.ID]float64

	// Shared solver context (see context.go): table is the board's
	// distance table once built, ctx the published alias of it.
	table *selection.RoundContext
	ctx   *selection.RoundContext
}

// New validates the configuration and builds an engine. Area and
// NeighborRadius are validated lazily by the first Reprice (mirroring the
// historical per-round grid construction), so drivers that never reprice
// need not provide them.
func New(cfg Config) (*Engine, error) {
	if cfg.Board == nil {
		return nil, errors.New("engine: nil board")
	}
	e := &Engine{cfg: cfg}
	if err := e.checkCapabilities(); err != nil {
		return nil, err
	}
	e.bindBoard(cfg.Board)
	return e, nil
}

// bindBoard makes b the engine's board. The distance table of any
// previous board is dropped, never reused: a problem built before the
// swap may still be solving against it.
func (e *Engine) bindBoard(b *task.Board) {
	e.board = b
	e.states = b.States()
	e.table = nil
}

// checkCapabilities verifies that the configuration can supply every
// capability the mechanism declares, so a missing input fails at
// construction (and again at reprice, covering SetMechanism swaps) rather
// than as a nil dereference mid-campaign.
func (e *Engine) checkCapabilities() error {
	m := e.cfg.Mechanism
	if m == nil {
		return nil
	}
	req := m.Requires()
	if req.Has(incentive.CapBids) && !(e.cfg.BidCostPerMeter > 0) {
		return fmt.Errorf("engine: mechanism %s requires worker bids but Config.BidCostPerMeter is %v, want > 0",
			m.Name(), e.cfg.BidCostPerMeter)
	}
	if req.Has(incentive.CapBudget) && !(e.cfg.Budget > 0) {
		return fmt.Errorf("engine: mechanism %s requires a budget but Config.Budget is %v, want > 0",
			m.Name(), e.cfg.Budget)
	}
	if req.Has(incentive.CapMobility) && e.cfg.Forecast == nil {
		return fmt.Errorf("engine: mechanism %s requires a mobility forecast but Config.Forecast is nil", m.Name())
	}
	if req.Has(incentive.CapRNG) && e.cfg.RNG == nil {
		return fmt.Errorf("engine: mechanism %s requires a seeded stream but Config.RNG is nil", m.Name())
	}
	return nil
}

// Board exposes the task board the engine runs over.
func (e *Engine) Board() *task.Board { return e.board }

// SetBoard replaces the engine's task board (a platform restoring a
// snapshot) and clears all published round state; callers reprice next,
// which builds a fresh distance table for the new board.
func (e *Engine) SetBoard(b *task.Board) {
	e.bindBoard(b)
	e.Clear()
}

// SetMechanism replaces the pricing mechanism used by subsequent
// Reprices (drivers let tests substitute a stub after construction).
// Already-published rewards are untouched.
func (e *Engine) SetMechanism(m incentive.Mechanism) { e.cfg.Mechanism = m }

// BeginRound starts round k: it unpublishes the previous round's rewards
// and context, resets the closed-task set, and snapshots the tasks open
// at k in board order, with their locations and board positions. The
// returned slice is engine-owned scratch, valid until the next
// BeginRound; it is the same slice Open returns.
//
//paylint:aliases open
func (e *Engine) BeginRound(round int) []*task.State {
	e.round = round
	e.rewards = nil
	e.mean = 0
	e.closed = e.closed[:0]
	e.ctx = nil
	e.open = e.open[:0]
	e.openLocs = e.openLocs[:0]
	e.openPos = e.openPos[:0]
	for i, st := range e.states {
		if st.OpenAt(round) {
			e.open = append(e.open, st)
			e.openLocs = append(e.openLocs, st.Location)
			e.openPos = append(e.openPos, i)
		}
	}
	return e.open
}

// Clear unpublishes everything (a finished campaign): no open tasks, no
// rewards, no context. The round number is preserved.
func (e *Engine) Clear() {
	e.rewards = nil
	e.mean = 0
	e.closed = e.closed[:0]
	e.ctx = nil
	e.open = e.open[:0]
	e.openLocs = e.openLocs[:0]
	e.openPos = e.openPos[:0]
}

// Reprice prices the current round's open snapshot: it counts each open
// task's neighboring users among userLocs with the reusable grid index,
// consults the mechanism, computes the mean published reward (summing in
// board order — float addition is not associative), validates the
// rewards, and publishes the board's shared solver context. With no open tasks it publishes nothing and returns nil
// without consulting the mechanism. On error nothing stays published:
// a driver that keeps serving after a failed reprice serves no prices
// rather than the previous round's.
func (e *Engine) Reprice(userLocs []geo.Point) error {
	if len(e.open) == 0 {
		return nil
	}
	if e.cfg.Mechanism == nil {
		return errors.New("engine: reprice without a mechanism")
	}
	views, err := e.NeighborViews(userLocs)
	if err != nil {
		return err
	}
	return e.RepriceViews(views, userLocs)
}

// RepriceViews is the pricing half of Reprice over caller-supplied task
// views: mechanism input assembly, mechanism consultation, board-order
// mean, reward validation, shared-context publication. views must
// hold one entry per open-snapshot task, in board order — normally the
// slice NeighborViews returned, but the geo-sharded engine builds it by
// merging per-region neighbor counts so pricing still happens once,
// globally (the demand normalization of Eq. 5 couples every task through
// the max neighbor count, so pricing cannot be sharded without changing
// output). userLocs is the round's full user-location slice in user order;
// it feeds bid construction for mechanisms that declare the bids
// capability and may be nil otherwise. The sharded engine passes the same
// global slice it partitioned, so assembled inputs — bid workers, costs,
// ordering — are byte-identical to the unsharded engine's.
func (e *Engine) RepriceViews(views []incentive.TaskView, userLocs []geo.Point) error {
	if len(e.open) == 0 {
		return nil
	}
	if e.cfg.Mechanism == nil {
		return errors.New("engine: reprice without a mechanism")
	}
	if err := e.checkCapabilities(); err != nil {
		return err
	}
	if len(views) != len(e.open) {
		return fmt.Errorf("engine: %d views for %d open tasks", len(views), len(e.open))
	}
	// Assemble exactly the inputs the mechanism declares. The RoundInput
	// and the reward map are engine-owned scratch recycled every round;
	// mechanisms consume them synchronously inside RewardsInto.
	req := e.cfg.Mechanism.Requires()
	e.in = incentive.RoundInput{Round: e.round, Views: views}
	if req.Has(incentive.CapBids) {
		e.in.Bids = e.buildBids(userLocs, views)
	}
	if req.Has(incentive.CapBudget) {
		e.in.Budget = e.cfg.Budget
	}
	if req.Has(incentive.CapMobility) {
		e.in.Mobility = e.cfg.Forecast
	}
	if req.Has(incentive.CapRNG) {
		e.in.RNG = e.cfg.RNG
	}
	if e.rewardBuf == nil {
		e.rewardBuf = make(map[task.ID]float64, len(views))
	} else {
		clear(e.rewardBuf)
	}
	// Unpublish before consulting the mechanism: clearing the recycled map
	// invalidates a previously published alias of it, and on error nothing
	// may stay published.
	e.rewards = nil
	e.mean = 0
	e.ctx = nil
	if err := e.cfg.Mechanism.RewardsInto(&e.in, e.rewardBuf); err != nil {
		return err
	}
	rewards := e.rewardBuf
	// A mechanism may legally return no rewards for open tasks (for
	// example when its budget is exhausted); the mean must then be zero,
	// not 0/0 = NaN, which would poison every aggregate built on it.
	mean := 0.0
	if len(rewards) > 0 {
		total := 0.0
		for _, st := range e.open {
			if r, ok := rewards[st.ID]; ok {
				total += r
			}
		}
		mean = total / float64(len(rewards))
	}
	// Validate the round's shared selection inputs once, here, instead of
	// once per user selection call: reward sanity below, task locations
	// inside the board's context build (or the explicit loop when the
	// context is disabled). ProblemInto then marks its problems
	// CandidatesValid.
	// Scanning in board order keeps the reported task deterministic when
	// several rewards are NaN.
	for _, st := range e.open {
		if r, ok := rewards[st.ID]; ok && math.IsNaN(r) {
			return fmt.Errorf("mechanism %s: NaN reward for task %d", e.cfg.Mechanism.Name(), st.ID)
		}
	}
	if e.cfg.DisableContext {
		for _, st := range e.open {
			if !st.Location.IsFinite() {
				return fmt.Errorf("task %d: non-finite location %v", st.ID, st.Location)
			}
		}
	} else if err := e.publishContext(); err != nil {
		return err
	}
	e.rewards = rewards
	e.mean = mean
	return nil
}

// NeighborViews builds the mechanism's per-task observations for the
// current open snapshot, counting each task's neighboring users with the
// reusable grid index over the given user locations. It is the geometric
// half of Reprice, exported so the geo-sharded engine can run it
// per-region (each region calls it on its halo-mirrored user set) before
// pricing globally with RepriceViews. The returned slice is engine-owned
// scratch, valid until the next NeighborViews/Reprice (mechanisms consume
// it synchronously inside Rewards).
//
//paylint:aliases viewBuf
func (e *Engine) NeighborViews(userLocs []geo.Point) ([]incentive.TaskView, error) {
	if err := e.grid.Reset(e.cfg.Area, e.cfg.NeighborRadius, userLocs); err != nil {
		return nil, err
	}
	if cap(e.viewBuf) < len(e.open) {
		e.viewBuf = make([]incentive.TaskView, len(e.open))
	}
	views := e.viewBuf[:len(e.open)]
	for i, st := range e.open {
		views[i] = incentive.TaskView{
			ID:        st.ID,
			Location:  st.Location,
			Deadline:  st.Deadline,
			Required:  st.Required,
			Received:  st.Received(),
			Neighbors: e.grid.CountWithin(st.Location, e.cfg.NeighborRadius),
		}
	}
	return views, nil
}

// buildBids derives one claimed-cost bid per user for mechanisms that
// declare the bids capability: worker i (the index into userLocs) claims
// BidCostPerMeter times the distance from its location to the nearest
// open task — the cheapest travel that could yield it a measurement. The
// returned slice is engine-owned scratch, in user order, valid until the
// next Reprice.
func (e *Engine) buildBids(userLocs []geo.Point, views []incentive.TaskView) []incentive.Bid {
	e.bidBuf = e.bidBuf[:0]
	for i, loc := range userLocs {
		best := math.Inf(1)
		for _, v := range views {
			if d := loc.Dist(v.Location); d < best {
				best = d
			}
		}
		if len(views) == 0 {
			best = 0
		}
		e.bidBuf = append(e.bidBuf, incentive.Bid{Worker: i, Cost: e.cfg.BidCostPerMeter * best})
	}
	return e.bidBuf
}

// Round returns the round number of the current snapshot.
func (e *Engine) Round() int { return e.round }

// Open returns the current round's open-task snapshot in board order.
// The slice is engine-owned scratch, valid until the next BeginRound.
//
//paylint:aliases open
func (e *Engine) Open() []*task.State { return e.open }

// Rewards returns the published reward map, nil when nothing is priced.
// The map is engine-owned scratch recycled by the next Reprice: read it
// before the round advances and do not retain it.
func (e *Engine) Rewards() map[task.ID]float64 { return e.rewards }

// RewardFor returns the published reward of one task and whether the
// task is priced this round.
func (e *Engine) RewardFor(id task.ID) (float64, bool) {
	r, ok := e.rewards[id]
	return r, ok
}

// MeanPublishedReward returns the mean per-measurement reward offered
// over the tasks priced this round, zero when nothing is priced.
func (e *Engine) MeanPublishedReward() float64 { return e.mean }

// Commit records one measurement by user for the task at this round's
// published reward (zero if the task is unpriced, matching the candidate
// sets ProblemInto builds without RequirePriced). Double-fill protection
// is the board's: committing to a completed, expired, or
// already-contributed task fails without mutating anything. A commit that
// completes the task adds it to the round's closed set.
func (e *Engine) Commit(user int, id task.ID) (reward float64, completed bool, err error) {
	reward = e.rewards[id]
	completed, err = e.CommitPaid(user, id, reward)
	return reward, completed, err
}

// CommitPaid is Commit at an explicit payment, for drivers whose prices
// are not the published rewards (the SAT reverse auction pays winning
// bids first-price).
func (e *Engine) CommitPaid(user int, id task.ID, paid float64) (completed bool, err error) {
	st := e.board.Get(id)
	if st == nil {
		return false, fmt.Errorf("engine: commit to unknown task %d", id)
	}
	if err := st.Record(user, e.round, paid); err != nil {
		return false, err
	}
	if st.Complete() {
		e.closed = append(e.closed, id)
		return true, nil
	}
	return false, nil
}

// CommitPlan commits one user's planned route in order at this round's
// published rewards. It returns the number of tasks committed; on error
// n < len(ids) and the failing task is ids[n] (nothing after it was
// attempted, matching a driver's sequential per-task loop). The
// geo-sharded engine overrides this with a two-phase cross-shard commit;
// drivers that commit whole plans should use it rather than looping over
// Commit so they get shard atomicity for free.
func (e *Engine) CommitPlan(user int, ids []task.ID) (n int, err error) {
	for i, id := range ids {
		if _, _, err := e.Commit(user, id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// Closed returns the IDs of tasks filled to their requirement by commits
// of the current round, in commit order — the conflict set a speculative
// driver checks before trusting a plan solved against the round-start
// snapshot. The slice is engine-owned scratch, valid until the next
// BeginRound.
//
//paylint:aliases closed
func (e *Engine) Closed() []task.ID { return e.closed }

// StartRoundStats fills the snapshot-derived fields of a round record:
// the round number, the open-task count, and the mean published reward.
func (e *Engine) StartRoundStats(rs *metrics.RoundStats) {
	rs.Round = e.round
	rs.OpenTasks = len(e.open)
	rs.MeanPublishedReward = e.mean
}

// FinishRoundStats fills the board-derived fields of a round record after
// all commits: measurement counts, coverage, completeness, reward paid.
func (e *Engine) FinishRoundStats(rs *metrics.RoundStats) {
	rs.NewMeasurements = e.board.TotalReceivedAt(e.round)
	rs.TotalMeasurements = e.board.TotalReceived()
	rs.Coverage = e.board.CoverageBy(e.round)
	rs.Completeness = e.board.OverallCompletenessBy(e.round)
	rs.RewardPaid = e.board.TotalRewardPaid()
}

// FinishTrial fills the board-derived campaign metrics of a completed
// trial (Section VI): coverage, completeness, the measurement
// distribution, and reward totals. Driver-owned fields — identification,
// the per-round series, and the user profit metrics — are left alone.
func (e *Engine) FinishTrial(t *metrics.TrialResult) {
	t.Coverage = e.board.Coverage()
	t.OverallCompleteness = e.board.OverallCompleteness()
	t.StrictCompleteness = e.board.StrictCompleteness()
	counts := e.board.MeasurementCounts()
	t.AvgMeasurements = stats.Mean(counts)
	t.VarianceMeasurements = stats.Variance(counts)
	t.TotalMeasurements = e.board.TotalReceived()
	t.TotalRewardPaid = e.board.TotalRewardPaid()
	t.AvgRewardPerMeasurement = e.board.AverageRewardPerMeasurement()
	t.TaskGini = stats.Gini(counts)
}
