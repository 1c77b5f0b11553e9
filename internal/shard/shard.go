// Package shard implements the geo-sharded round engine: an
// engine.RoundEngine that partitions the task board and the worker set
// into R geographic regions (a cols x rows split of the sensing area
// along its bounds, the same uniform-grid cell structure geo.GridIndex
// uses), runs the geometric half of the per-round pipeline — open-task
// snapshot and neighbor counting — on all regions concurrently via a
// worker pool, and merges the per-region results deterministically back
// into global board order before pricing.
//
// # Why the split is geometric, not total
//
// The paper's demand factor (Eq. 5) normalizes every task's neighbor
// count by the round's global maximum, and the fixed mechanism draws
// reward levels from one shared RNG in view order: pricing couples every
// task on the board, so running the mechanism per shard would change
// output. What does partition cleanly is the geometry — each region
// counts the neighbors of its own tasks over only the users that can
// possibly be within the travel radius of them — and that is where the
// per-round cost lives (grid build over the user set plus a radius query
// per task). The sharded engine therefore calls engine.NeighborViews on
// every region in parallel, scatters the per-region views into one
// board-ordered slice, and hands that to the inner engine's
// RepriceViews, which prices once, globally. Output is byte-identical to
// the unsharded engine at every shard count, every worker count, and
// every GOMAXPROCS — sharding changes wall-clock, never bytes.
//
// # Halo invariant
//
// A region must count, for each task it owns, every user strictly within
// NeighborRadius of the task's location. Users near a region boundary
// therefore get mirrored into every adjacent region whose halo they
// fall in: region r's interest rectangle is the union of its owned
// rectangle and the bounding box of its owned task locations, expanded
// by NeighborRadius on all sides. If a user is strictly within R of an
// owned task then it is within R of the task bbox in the L-infinity
// metric, hence inside the interest rectangle — so the region's user set
// is a superset of every owned task's true neighbor set, and the grid's
// exact Euclidean re-check discards the surplus. Ownership itself needs
// no such care: a task is owned by whichever region its (clamped)
// location maps to, and exactness flows from the owned-task bbox, not
// from the rectangle, so boundary rounding in the ownership rule cannot
// produce a wrong count.
//
// # Commits
//
// Committed measurements mutate the one global task board (regions hold
// sub-boards sharing the same *task.State values), so commits go through
// the owning region's lock. Whole plans use CommitPlan's two-phase
// protocol: acquire every owning region's lock in ascending region ID
// (deadlock-free), replay the plan's commits in order, release. Drivers
// keep the candidate-overlap replay discipline from the speculative
// round work: Closed reports which tasks filled up this round.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// Config parameterizes a sharded engine. The embedded fields mirror
// engine.Config; Shards and Workers are the sharding knobs.
type Config struct {
	// Board is the campaign's task board. Required.
	Board *task.Board
	// Mechanism prices the open tasks each round (globally — see the
	// package comment). May be nil for drivers that never reprice.
	Mechanism incentive.Mechanism
	// Area bounds the sensing region; it is split into Shards regions.
	// Required and must have positive extent.
	Area geo.Rect
	// NeighborRadius is the radius R of the neighbor-count demand factor
	// and the halo width mirrored across region boundaries.
	NeighborRadius float64
	// DisableContext and RequirePriced are forwarded to the inner engine;
	// see engine.Config.
	DisableContext bool
	RequirePriced  bool
	// Shards is the region count R >= 1. R=1 degenerates to one region
	// covering the whole area and is byte-identical (and within noise,
	// cost-identical) to the unsharded engine.
	Shards int
	// Workers bounds the goroutines driving the parallel phases
	// (per-region snapshots, user partitioning, neighbor counting).
	// 0 means one per GOMAXPROCS; 1 runs everything inline. Output is
	// identical at any setting.
	Workers int
	// RNG, Budget, BidCostPerMeter and Forecast back the mechanism
	// capabilities; all are forwarded to the inner (pricing) engine — see
	// engine.Config. Capability inputs are assembled once, globally, from
	// the same user-location slice the regions partition, so they are
	// byte-identical to the unsharded engine's.
	RNG             *stats.RNG
	Budget          float64
	BidCostPerMeter float64
	Forecast        incentive.ForecastProvider
}

// region is one geographic shard: the rectangle it owns, the halo-
// expanded rectangle of users it must see, a private engine over the
// sub-board of owned tasks (sharing task state with the global board),
// and the commit lock serializing mutations of those tasks.
type region struct {
	id       int
	rect     geo.Rect
	interest geo.Rect
	eng      *engine.Engine
	mu       sync.Mutex

	// Grow-only per-round scratch: the mirrored user set, the slice the
	// neighbor phase actually reads (aliases users, or the caller's
	// slice when R=1), and the global open-snapshot position of each
	// region-open task.
	users []geo.Point
	view  []geo.Point
	idx   []int32
}

// Engine is the geo-sharded round engine. Create with New. It
// implements engine.RoundEngine; see the package comment for what is
// sharded and what stays global. Like engine.Engine, mutating calls
// (BeginRound, Reprice, Clear, Set*) are driver-serialized; the commit
// methods are additionally safe to call concurrently with each other
// (they lock the owning regions), which is what lets independent
// frontends commit to different regions without a global lock.
type Engine struct {
	cfg   Config
	inner *engine.Engine
	board *task.Board

	regions []*region
	owner   map[task.ID]int
	cols    int
	rows    int
	cellW   float64
	cellH   float64
	// ext is the partition window half-width: NeighborRadius plus the
	// largest distance any region's interest rectangle extends beyond
	// its owned rectangle (out-of-area task overhang). A user at p can
	// only matter to regions whose owned rectangle intersects the
	// square of half-side ext around p.
	ext     float64
	workers int

	// Grow-only per-round scratch.
	viewsAll  []incentive.TaskView
	chunkBufs [][]geo.Point
	errs      []error

	// The parallel phases' worker funcs, bound once in New: a closure
	// built per call would escape into the pool's goroutines and cost an
	// allocation per round. Per-call parameters travel through the fields
	// below; the driver serializes mutating calls, so they cannot race.
	beginFn  func(i int)
	countFn  func(ri int)
	chunkFn  func(c int)
	gatherFn func(ri int)
	curRound int
	curLocs  []geo.Point
	curViews []incentive.TaskView
	nchunks  int

	// closed is the round's filled-task set in commit order, exactly the
	// semantics of engine.Closed: appended under closedMu because
	// commits from different regions may run concurrently.
	closedMu sync.Mutex
	closed   []task.ID
}

var _ engine.RoundEngine = (*Engine)(nil)

// New validates the configuration and builds a sharded engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Board == nil {
		return nil, errors.New("shard: nil board")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards, want >= 1", cfg.Shards)
	}
	if !cfg.Area.Valid() || cfg.Area.Width() <= 0 || cfg.Area.Height() <= 0 {
		return nil, fmt.Errorf("shard: invalid area %v", cfg.Area)
	}
	inner, err := engine.New(engine.Config{
		Board:           cfg.Board,
		Mechanism:       cfg.Mechanism,
		Area:            cfg.Area,
		NeighborRadius:  cfg.NeighborRadius,
		DisableContext:  cfg.DisableContext,
		RequirePriced:   cfg.RequirePriced,
		RNG:             cfg.RNG,
		Budget:          cfg.Budget,
		BidCostPerMeter: cfg.BidCostPerMeter,
		Forecast:        cfg.Forecast,
	})
	if err != nil {
		return nil, err
	}
	s := &Engine{cfg: cfg, inner: inner, workers: cfg.Workers}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	s.cols, s.rows = factor(cfg.Shards, cfg.Area)
	s.cellW = cfg.Area.Width() / float64(s.cols)
	s.cellH = cfg.Area.Height() / float64(s.rows)
	s.regions = make([]*region, cfg.Shards)
	for row := 0; row < s.rows; row++ {
		for col := 0; col < s.cols; col++ {
			id := row*s.cols + col
			s.regions[id] = &region{id: id, rect: s.regionRect(col, row)}
		}
	}
	s.beginFn = func(i int) { s.regions[i].eng.BeginRound(s.curRound) }
	s.countFn = s.countRegion
	s.chunkFn = s.partitionChunkAt
	s.gatherFn = s.gatherRegion
	s.bindBoard(cfg.Board)
	return s, nil
}

// bindBoard (re)derives all board-dependent shard state: task ownership,
// each region's interest rectangle (owned rect union owned-task bbox,
// halo-expanded), the partition window, and the per-region engines over
// fresh sub-boards. Called from New and SetBoard.
func (s *Engine) bindBoard(b *task.Board) {
	s.board = b
	s.owner = make(map[task.ID]int, b.Len())
	type bbox struct {
		r   geo.Rect
		any bool
	}
	boxes := make([]bbox, len(s.regions))
	for _, st := range b.States() {
		ri := s.ownerOf(st.Location)
		s.owner[st.ID] = ri
		tb := geo.Rect{Min: st.Location, Max: st.Location}
		if !boxes[ri].any {
			boxes[ri] = bbox{r: tb, any: true}
		} else {
			boxes[ri].r = boxes[ri].r.Union(tb)
		}
	}
	s.ext = s.cfg.NeighborRadius
	for i, r := range s.regions {
		covered := r.rect
		if boxes[i].any {
			covered = covered.Union(boxes[i].r)
		}
		r.interest = covered.Expand(s.cfg.NeighborRadius)
		// The window half-width must reach the farthest interest edge
		// measured from the owned rectangle.
		for _, d := range []float64{
			r.rect.Min.X - r.interest.Min.X,
			r.interest.Max.X - r.rect.Max.X,
			r.rect.Min.Y - r.interest.Min.Y,
			r.interest.Max.Y - r.rect.Max.Y,
		} {
			if d > s.ext {
				s.ext = d
			}
		}
		ri := i
		sub := b.Sub(func(st *task.State) bool { return s.owner[st.ID] == ri })
		eng, err := engine.New(engine.Config{
			Board:          sub,
			Area:           r.interest,
			NeighborRadius: s.cfg.NeighborRadius,
			// Region engines never price or build solver contexts; they
			// exist for the geometric phase and region-local commits.
			DisableContext: true,
		})
		if err != nil {
			// Unreachable: the sub-board is never nil.
			panic(err)
		}
		r.eng = eng
	}
}

// Board exposes the global task board.
func (s *Engine) Board() *task.Board { return s.board }

// SetBoard replaces the task board (a platform restoring a snapshot),
// rebuilding region ownership, halos, and sub-boards; callers reprice
// next.
func (s *Engine) SetBoard(b *task.Board) {
	s.inner.SetBoard(b)
	s.closed = s.closed[:0]
	s.bindBoard(b)
}

// SetMechanism replaces the (global) pricing mechanism.
func (s *Engine) SetMechanism(m incentive.Mechanism) {
	s.cfg.Mechanism = m
	s.inner.SetMechanism(m)
}

// BeginRound starts round k on the inner engine and every region
// concurrently. The returned slice is the inner engine's open snapshot
// in global board order, valid until the next BeginRound.
func (s *Engine) BeginRound(round int) []*task.State {
	s.closed = s.closed[:0]
	open := s.inner.BeginRound(round)
	s.curRound = round
	runParallel(s.workers, len(s.regions), s.beginFn)
	return open
}

// Clear unpublishes everything on the inner engine and every region.
func (s *Engine) Clear() {
	s.closed = s.closed[:0]
	s.inner.Clear()
	for _, r := range s.regions {
		r.eng.Clear()
	}
}

// Reprice runs the sharded per-round pipeline: partition the users into
// the regions' halo-expanded interest rectangles, count each region's
// task neighbors concurrently, scatter the per-region views back into
// global board order, and price once through the inner engine. See the
// package comment for why this is byte-identical to the unsharded
// engine at every shard and worker count.
func (s *Engine) Reprice(userLocs []geo.Point) error {
	open := s.inner.Open()
	if len(open) == 0 {
		return nil
	}
	if s.cfg.Mechanism == nil {
		return errors.New("engine: reprice without a mechanism")
	}
	// Record each region-owned open task's position in the global
	// snapshot. Both the global snapshot and every region snapshot are
	// in board creation order, so region r's j-th open task sits at
	// global position r.idx[j].
	for _, r := range s.regions {
		r.idx = r.idx[:0]
	}
	for i, st := range open {
		r := s.regions[s.owner[st.ID]]
		r.idx = append(r.idx, int32(i))
	}
	s.partition(userLocs)
	if cap(s.viewsAll) < len(open) {
		s.viewsAll = make([]incentive.TaskView, len(open))
	}
	views := s.viewsAll[:len(open)]
	if cap(s.errs) < len(s.regions) {
		s.errs = make([]error, len(s.regions))
	}
	s.curViews = views
	runParallel(s.workers, len(s.regions), s.countFn)
	// Surface the lowest-region error deterministically.
	for _, err := range s.errs[:len(s.regions)] {
		if err != nil {
			return err
		}
	}
	// Pricing consumes the same full, global user-location slice that was
	// just partitioned, so capability inputs (bid workers, costs, order)
	// cannot depend on the sharding.
	return s.inner.RepriceViews(views, userLocs)
}

// countRegion is the neighbor-count worker: it snapshots region ri's
// views over its mirrored user set and scatters them into the global
// board-ordered view slice. Disjoint writes — every global position
// belongs to exactly one region.
func (s *Engine) countRegion(ri int) {
	r := s.regions[ri]
	s.errs[ri] = nil
	if len(r.idx) == 0 {
		return
	}
	rv, err := r.eng.NeighborViews(r.view)
	if err != nil {
		s.errs[ri] = err
		return
	}
	if len(rv) != len(r.idx) {
		s.errs[ri] = fmt.Errorf("shard: region %d produced %d views for %d open tasks", ri, len(rv), len(r.idx))
		return
	}
	for j, v := range rv {
		s.curViews[r.idx[j]] = v
	}
}

// partitionChunk is the user-partition work unit. Chunk boundaries are
// a pure function of the input length, so the per-region user order —
// and with it every downstream byte — is independent of the worker
// count that processed the chunks.
const partitionChunk = 2048

// partition scatters userLocs into every region whose interest rectangle
// contains them (one region for interior users, several inside a halo).
// With one region the caller's slice is aliased directly — the R=1
// configuration adds no copy.
func (s *Engine) partition(userLocs []geo.Point) {
	if len(s.regions) == 1 {
		s.regions[0].view = userLocs
		return
	}
	R := len(s.regions)
	n := len(userLocs)
	s.nchunks = (n + partitionChunk - 1) / partitionChunk
	need := s.nchunks * R
	if cap(s.chunkBufs) < need {
		s.chunkBufs = append(s.chunkBufs[:cap(s.chunkBufs)], make([][]geo.Point, need-cap(s.chunkBufs))...)
	}
	s.curLocs = userLocs
	runParallel(s.workers, s.nchunks, s.chunkFn)
	runParallel(s.workers, R, s.gatherFn)
	s.curLocs = nil
}

// partitionChunkAt is the partition worker for one chunk of users: it
// scatters the chunk into the per-chunk-per-region buffers every region's
// gather later concatenates in chunk order.
func (s *Engine) partitionChunkAt(c int) {
	R := len(s.regions)
	lo := c * partitionChunk
	hi := lo + partitionChunk
	if hi > len(s.curLocs) {
		hi = len(s.curLocs)
	}
	cb := s.chunkBufs[c*R : (c+1)*R]
	for i := range cb {
		cb[i] = cb[i][:0]
	}
	for _, p := range s.curLocs[lo:hi] {
		c0 := s.colAt(p.X - s.ext)
		c1 := s.colAt(p.X + s.ext)
		r0 := s.rowAt(p.Y - s.ext)
		r1 := s.rowAt(p.Y + s.ext)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				ri := row*s.cols + col
				if s.regions[ri].interest.Contains(p) {
					cb[ri] = append(cb[ri], p)
				}
			}
		}
	}
}

// gatherRegion concatenates region ri's per-chunk buffers, in chunk
// order, into its mirrored user set.
func (s *Engine) gatherRegion(ri int) {
	R := len(s.regions)
	r := s.regions[ri]
	r.users = r.users[:0]
	for c := 0; c < s.nchunks; c++ {
		r.users = append(r.users, s.chunkBufs[c*R+ri]...)
	}
	r.view = r.users
}

// Round returns the round number of the current snapshot.
func (s *Engine) Round() int { return s.inner.Round() }

// Open returns the current round's global open snapshot in board order;
// the slice is inner-engine scratch, valid until the next BeginRound.
func (s *Engine) Open() []*task.State { return s.inner.Open() }

// Rewards returns the published (global) reward map.
func (s *Engine) Rewards() map[task.ID]float64 { return s.inner.Rewards() }

// RewardFor returns the published reward of one task.
func (s *Engine) RewardFor(id task.ID) (float64, bool) { return s.inner.RewardFor(id) }

// MeanPublishedReward returns the mean published reward of the round.
func (s *Engine) MeanPublishedReward() float64 { return s.inner.MeanPublishedReward() }

// Context returns the round's shared solver context (global, like
// pricing).
func (s *Engine) Context() *selection.RoundContext { return s.inner.Context() }

// ProblemInto assembles one actor's selection problem; see
// engine.ProblemInto for the contract.
func (s *Engine) ProblemInto(spec engine.Spec, who engine.Actor, buf []selection.Candidate) (selection.Problem, []selection.Candidate) {
	return s.inner.ProblemInto(spec, who, buf)
}

// StartRoundStats fills the snapshot-derived fields of a round record.
func (s *Engine) StartRoundStats(rs *metrics.RoundStats) { s.inner.StartRoundStats(rs) }

// FinishRoundStats fills the board-derived fields of a round record.
func (s *Engine) FinishRoundStats(rs *metrics.RoundStats) { s.inner.FinishRoundStats(rs) }

// FinishTrial fills the board-derived campaign metrics of a trial.
func (s *Engine) FinishTrial(t *metrics.TrialResult) { s.inner.FinishTrial(t) }

// Shards returns the region count R.
func (s *Engine) Shards() int { return len(s.regions) }
