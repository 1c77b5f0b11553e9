// Package engine implements the canonical round state machine of the
// crowdsensing platform: the per-round pipeline of open-task snapshot,
// neighbor counting, demand-based repricing (Eqs. 3-7), per-user problem
// assembly, measurement commit with double-fill protection, and
// round/trial statistics (Sec. VI).
//
// The engine owns platform state and scratch; frontends own behavior.
// Three drivers sit on top of it:
//
//   - internal/sim drives it with simulated user agents (random acting
//     order, mobility, churn);
//   - internal/server drives it under a mutex from HTTP handlers, with
//     workers registering, planning, and uploading over the wire;
//   - internal/sat drives the snapshot/settle/stats stages around a
//     centralized reverse auction instead of published prices.
//
// All per-round storage — the open-task snapshot and its locations, the
// neighbor grid, the mechanism's task views, the assembled mechanism input
// (bids, budget, forecast), and the published rewards — is grow-only
// scratch recycled across rounds, so a steady-state Reprice allocates
// nothing at all: mechanisms write into an engine-owned map through
// RewardsInto, and the engine republishes that map each round together
// with a copy by snapshot position, which is what problem assembly
// reads. Because
// of the scratch, an Engine is NOT safe for concurrent mutation: drivers
// serialize BeginRound/Reprice/Commit calls (the simulator is
// single-threaded; the HTTP platform holds its mutex). Read-only
// accessors, ProblemInto included, are safe to call concurrently between
// mutations. A problem ProblemInto returns shares no engine storage
// beyond the caller's candidate buffer, so it stays solvable after the
// driver's lock is released.
package engine

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
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
	// BeginRound/Clear. commits counts the measurements CommitPaid has
	// recorded since BeginRound. open is the snapshot in board order;
	// openLocs and openPos hold each snapshot entry's location and board
	// position.
	// rewards is the mechanism's reward map and prices its copy by
	// snapshot position: prices is empty while rewards is nil, and one
	// entry per open task while it is published. The hot readers
	// (ProblemInto, the platform's round listing) index prices; the map
	// stays for the callers that take it by ID (Rewards, RewardFor,
	// Commit).
	round    int
	commits  int
	open     []*task.State
	openLocs []geo.Point
	openPos  []int
	rewards  map[task.ID]float64
	prices   []price
	mean     float64

	// Reach index over the open snapshot, rebuilt by BeginRound (see
	// problem.go): reach holds openLocs, reachMaxHalf is the largest
	// reach-box half-width answered from it, and reachOK says whether
	// ProblemInto may query it this round.
	reach        geo.GridIndex
	reachMaxHalf float64
	reachOK      bool

	// Incremental neighbor counts (see NeighborViews): nbCount holds,
	// per board position, the number of users among nbLocs within R of
	// the task, as counted at round nbRound; nbOK says the counts are
	// exact for every task open since. moved and near are per-call
	// scratch.
	nbLocs  []geo.Point
	nbCount []int
	nbRound int
	nbOK    bool
	moved   []int
	near    []int

	// Grow-only per-round scratch.
	grid      geo.GridIndex
	viewBuf   []incentive.TaskView
	in        incentive.RoundInput
	bidBuf    []incentive.Bid
	rewardBuf map[task.ID]float64
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

// bindBoard makes b the engine's board. The neighbor counts belong to
// the old board, so they are dropped.
func (e *Engine) bindBoard(b *task.Board) {
	e.board = b
	e.states = b.States()
	e.nbOK = false
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
// snapshot) and clears all published round state; callers reprice next.
func (e *Engine) SetBoard(b *task.Board) {
	e.bindBoard(b)
	e.Clear()
}

// SetMechanism replaces the pricing mechanism used by subsequent
// Reprices (drivers let tests substitute a stub after construction).
// Already-published rewards are untouched.
func (e *Engine) SetMechanism(m incentive.Mechanism) { e.cfg.Mechanism = m }

// BeginRound starts round k: it unpublishes the previous round's
// rewards, restarts the round's commit count, snapshots the tasks open
// at k in board order, with their locations and board positions, and
// indexes the snapshot's locations for ProblemInto's reach queries. The
// returned slice is engine-owned scratch, valid until the next
// BeginRound; it is the same slice Open returns.
//
//paylint:aliases open
func (e *Engine) BeginRound(round int) []*task.State {
	e.round = round
	e.commits = 0
	e.unpublish()
	e.open = e.open[:0]
	e.openLocs = e.openLocs[:0]
	e.openPos = e.openPos[:0]
	var box geo.Rect
	finite := true
	for i, st := range e.states {
		if st.OpenAt(round) {
			loc := st.Location
			if len(e.open) == 0 {
				box = geo.Rect{Min: loc, Max: loc}
			}
			box = box.Union(geo.Rect{Min: loc, Max: loc})
			finite = finite && loc.IsFinite()
			e.open = append(e.open, st)
			e.openLocs = append(e.openLocs, loc)
			e.openPos = append(e.openPos, i)
		}
	}
	e.indexReach(box, finite)
	return e.open
}

// Clear unpublishes everything (a finished campaign): no open tasks, no
// rewards. The round number is preserved.
func (e *Engine) Clear() {
	e.unpublish()
	e.open = e.open[:0]
	e.openLocs = e.openLocs[:0]
	e.openPos = e.openPos[:0]
	e.reachOK = false
}

// Reprice prices the current round's open snapshot: it counts each open
// task's neighboring users among userLocs with the reusable grid index,
// consults the mechanism, computes the mean published reward (summing in
// board order — float addition is not associative), validates the
// rewards and the open tasks' locations, and publishes the rewards. With
// no open tasks it publishes nothing and returns nil without consulting
// the mechanism. On error nothing stays published: a driver that keeps
// serving after a failed reprice serves no prices rather than the
// previous round's.
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
// mean, reward and location validation, publication. It publishes the
// mechanism's reward map (Rewards, RewardFor) together with its copy by
// snapshot position (RewardAt), which ProblemInto reads; a failed
// reprice publishes neither. views must hold
// one entry per open-snapshot task, in board order — the slice
// NeighborViews returned. userLocs is the round's full user-location
// slice in user order; it feeds bid construction for mechanisms that
// declare the bids capability and may be nil otherwise. It stays exported
// beside Reprice so the benchmark's round-loop mirror (bench/mirror.go)
// can time neighbor counting and pricing as separate layers; calling
// NeighborViews then RepriceViews is exactly Reprice.
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
	e.unpublish()
	if err := e.cfg.Mechanism.RewardsInto(&e.in, e.rewardBuf); err != nil {
		return err
	}
	rewards := e.rewardBuf
	// Copy the rewards into snapshot order, summing the priced ones in
	// board order for the mean. A mechanism may legally return no
	// rewards for open tasks (for example when its budget is exhausted);
	// the mean must then be zero, not 0/0 = NaN, which would poison every
	// aggregate built on it.
	prices := e.prices[:0]
	total := 0.0
	for _, st := range e.open {
		r, ok := rewards[st.ID]
		prices = append(prices, price{reward: r, priced: ok})
		if ok {
			total += r
		}
	}
	e.prices = prices[:0] // the grown storage, unpublished until validated
	mean := 0.0
	if len(rewards) > 0 {
		mean = total / float64(len(rewards))
	}
	// Validate the round's shared selection inputs once, here, instead of
	// once per user selection call: reward sanity, then task locations.
	// ProblemInto then marks its problems CandidatesValid.
	// Scanning in board order keeps the reported task deterministic when
	// several rewards are NaN.
	for i, pr := range prices {
		if pr.priced && math.IsNaN(pr.reward) {
			return fmt.Errorf("mechanism %s: NaN reward for task %d", e.cfg.Mechanism.Name(), e.open[i].ID)
		}
	}
	for _, st := range e.open {
		if !st.Location.IsFinite() {
			return fmt.Errorf("task %d: non-finite location %v", st.ID, st.Location)
		}
	}
	e.rewards = rewards
	e.prices = prices
	e.mean = mean
	return nil
}

// price is one open task's published reward, and whether the mechanism
// priced it at all.
type price struct {
	reward float64
	priced bool
}

// unpublish withdraws the round's prices: the reward map, its copy by
// snapshot position and the mean.
func (e *Engine) unpublish() {
	e.rewards = nil
	e.prices = e.prices[:0]
	e.mean = 0
}

// NeighborViews builds the mechanism's per-task observations for the
// current open snapshot, counting each task's neighboring users (Eq. 5:
// those strictly within R) among the given user locations. It is the
// geometric half of Reprice, exported so the benchmark's round-loop
// mirror (bench/mirror.go) can time it apart from pricing
// (RepriceViews). The returned slice is engine-owned scratch, valid
// until the next NeighborViews/Reprice (mechanisms consume it
// synchronously inside RewardsInto).
//
// The counts are kept from one call to the next. When few users moved
// since the last count, only the moved users are recounted (see
// shiftMoved); otherwise every open task is counted afresh over a grid
// of the users (see recount). Both give every task the count a fresh
// recount would.
//
//paylint:aliases viewBuf
func (e *Engine) NeighborViews(userLocs []geo.Point) ([]incentive.TaskView, error) {
	if !e.shiftMoved(userLocs) {
		if err := e.recount(userLocs); err != nil {
			return nil, err
		}
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
			Neighbors: e.nbCount[e.openPos[i]],
		}
	}
	return views, nil
}

// recount counts every open task's neighbors among userLocs afresh and
// remembers the locations for the next shiftMoved. The grid's cell side
// is R/2: a query then scans a block of 5x5 small cells, about two
// thirds the area of the 3x3 block of R-sized cells, so fewer users reach
// the distance test.
func (e *Engine) recount(userLocs []geo.Point) error {
	e.nbOK = false
	if err := e.grid.Reset(e.cfg.Area, e.cfg.NeighborRadius/2, userLocs); err != nil {
		return err
	}
	if cap(e.nbCount) < len(e.states) {
		e.nbCount = make([]int, len(e.states))
	}
	e.nbCount = e.nbCount[:len(e.states)]
	for i, st := range e.open {
		e.nbCount[e.openPos[i]] = e.grid.CountWithin(st.Location, e.cfg.NeighborRadius)
	}
	e.nbLocs = append(e.nbLocs[:0], userLocs...)
	e.nbRound = e.round
	// Only BeginRound sets reachOK, over a full snapshot of the tasks open
	// at the round; Clear empties the snapshot and resets it. Counts taken
	// over a cleared snapshot miss tasks open at the round.
	e.nbOK = e.reachOK
	return nil
}

// movedShare is the share of users that may have moved since the last
// count for NeighborViews to update the counts user by user; from it on,
// recounting every task is about as cheap. Each moved user costs two
// queries of side 2R over the open tasks, where a recount costs one grid
// build over all users plus one query of side 2R per open task over the
// users, so the break-even share hardly depends on the population sizes.
// BenchmarkNeighborViews (R = 500 m in a 3 km square; 2-CPU host), each
// path forced in turn, three runs each, measured:
//
//	moved  city update   city recount  paper update  paper recount
//	0%     18-24 µs      -             0.5-0.6 µs    -
//	1%     48-56 µs      0.71-0.91 ms  0.7-0.8 µs    3.8-4.6 µs
//	6%     0.17-0.19 ms  0.80-0.94 ms  1.1-1.3 µs    3.8-4.4 µs
//	10%    0.28-0.34 ms  0.80-0.97 ms  1.5-1.7 µs    3.7-4.6 µs
//	15%    0.42-0.45 ms  0.81-0.91 ms  1.9-2.6 µs    3.9-4.9 µs
//	25%    0.63-0.85 ms  0.88-1.11 ms  2.8-4.1 µs    4.4-5.3 µs
//	40%    1.03-1.28 ms  0.86-1.10 ms  5.3-5.7 µs    4.4-5.9 µs
//	50%    1.33-1.44 ms  0.86-0.89 ms  5.9-6.6 µs    4.4-5.5 µs
//	100%   2.5-3.1 ms    0.86-0.95 ms  11.6-12.1 µs  4.9-6.3 µs
//
// City size is 2000 users and 1000 open tasks, paper size 100 users and
// 20 tasks. The costs cross near a third of the users: at about 30% at
// city size and 40% at paper size.
const movedShare = 0.35

// shiftMoved brings the neighbor counts up to date for userLocs by
// recounting only the users whose location changed, bitwise, since the
// last count, and reports whether it could; when it reports false it has
// changed nothing and the caller must recount. It can when:
//   - the last count was over this board and a full open snapshot
//     (bindBoard drops the counts, and recount keeps them only while
//     reachOK stands for BeginRound's snapshot);
//   - the user count is unchanged, so user i is the same user;
//   - the round has not gone back: a task open now was open then,
//     because a task only ever closes (OpenAt is !Complete and
//     1 <= round <= Deadline), so every open task's count is current;
//   - the reach index over the open snapshot is built (reachOK);
//   - every moved user's old and new location is finite;
//   - fewer than movedShare of the users moved.
//
// A moved user takes -1 on each open task within R of its old location
// and +1 on each within R of its new one, found by a WithinInto query of
// radius R around the user's location u over the reach index. That query
// applies the pair predicate CountWithin applies around the task, and
// the predicate is symmetric for two finite points (see geo's within),
// so each count ends as a recount would leave it. Candidates come from
// the reach cells under the box [u.X-R, u.X+R] x [u.Y-R, u.Y+R], corners
// rounded to nearest, and that box holds every task the predicate
// accepts. The predicate accepts a task at t only when the computed
// |dx| = |fl(u.X-t.X)| is below R: either Hypot(dx, dy) < R, and Hypot
// is at least the larger magnitude (see axisOutOfReach), or dx*dx+dy*dy
// fell below the band's lo, which is below fl(R*R), while |dx| >= R
// would make the rounded sum at least fl(R*R). Now suppose t.X were below
// the corner c = fl(u.X-R). If t.X <= u.X-R exactly, then u.X-t.X >= R
// exactly and, rounding being monotone, |dx| >= R. Otherwise the float
// t.X lies strictly between u.X-R and c, nearer to u.X-R than c is,
// which contradicts c being the nearest float. The other three sides
// follow alike, and the reach index's cell mapping is monotone, so every
// accepted task is bucketed in the cells under the box.
func (e *Engine) shiftMoved(userLocs []geo.Point) bool {
	if !e.nbOK || !e.reachOK || len(userLocs) != len(e.nbLocs) || e.round < e.nbRound {
		return false
	}
	limit := movedShare * float64(len(userLocs))
	e.moved = e.moved[:0]
	for i, loc := range userLocs {
		old := e.nbLocs[i]
		if math.Float64bits(loc.X) == math.Float64bits(old.X) && math.Float64bits(loc.Y) == math.Float64bits(old.Y) {
			continue
		}
		if float64(len(e.moved)+1) >= limit || !loc.IsFinite() || !old.IsFinite() {
			return false
		}
		e.moved = append(e.moved, i)
	}
	for _, i := range e.moved {
		e.shift(e.nbLocs[i], -1)
		e.shift(userLocs[i], 1)
		e.nbLocs[i] = userLocs[i]
	}
	e.nbRound = e.round
	return true
}

// shift adds delta to the count of every open task within R of a user
// at u (see shiftMoved).
func (e *Engine) shift(u geo.Point, delta int) {
	e.near = e.reach.WithinInto(e.near, u, e.cfg.NeighborRadius)
	for _, i := range e.near {
		e.nbCount[e.openPos[i]] += delta
	}
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

// Open returns the current round's open-task snapshot in board order.
// The slice is engine-owned scratch, valid until the next BeginRound.
//
//paylint:aliases open
func (e *Engine) Open() []*task.State { return e.open }

// Rewards returns the published reward map, nil when nothing is priced.
// The map is engine-owned scratch recycled by the next Reprice: read it
// before the round advances and do not retain it.
func (e *Engine) Rewards() map[task.ID]float64 { return e.rewards }

// RewardAt is RewardFor by snapshot position: the published reward of
// Open()[i] and whether it is priced, read without a hash lookup.
// Nothing is priced while no rewards are published.
func (e *Engine) RewardAt(i int) (float64, bool) {
	if i >= len(e.prices) {
		return 0, false
	}
	return e.prices[i].reward, e.prices[i].priced
}

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
// already-contributed task fails without mutating anything.
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
	e.commits++
	return st.Complete(), nil
}

// CommitPlan commits one user's planned route in order at this round's
// published rewards. It returns the number of tasks committed; on error
// n < len(ids) and the failing task is ids[n] (nothing after it was
// attempted, matching a driver's sequential per-task loop). The
// simulator commits each user's plan through it, and the benchmark's
// round-loop mirror (bench/mirror.go) times it as the commit layer.
func (e *Engine) CommitPlan(user int, ids []task.ID) (n int, err error) {
	for i, id := range ids {
		if _, _, err := e.Commit(user, id); err != nil {
			return i, err
		}
	}
	return len(ids), nil
}

// FinishRoundStats fills the board-derived fields of a round record:
// measurement counts, coverage, completeness, reward paid. It runs after
// the round's commits and before the next BeginRound, where the
// simulator's, the SAT driver's and the benchmark mirror's rounds call
// it; the HTTP platform never reads round stats. Every measurement on
// the board was then made in this round or an earlier one, so the
// board's live coverage and completeness are exactly their values as of
// this round (the per-round series of Figs. 6(b) and 7(b)), and the
// round's new measurements are the commits since BeginRound.
func (e *Engine) FinishRoundStats(rs *metrics.RoundStats) {
	rs.NewMeasurements = e.commits
	rs.TotalMeasurements = e.board.TotalReceived()
	rs.Coverage = e.board.Coverage()
	rs.Completeness = e.board.OverallCompleteness()
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
