package engine

import (
	"math"
	"slices"

	"paydemand/internal/geo"
	"paydemand/internal/selection"
)

// Actor is the engine's view of one acting user when assembling its
// candidate set: an identity to check against the board's contribution
// records, which hold every measurement a user has made. *agent.User
// implements Actor; drivers that track no user object use Worker.
type Actor interface {
	// ActorID is the user's ID as recorded in task contributions.
	ActorID() int
}

// Worker is the Actor of a driver with no user object (the HTTP platform
// knows only the board's contribution records): just an ID.
type Worker int

// ActorID implements Actor.
func (w Worker) ActorID() int { return int(w) }

// Spec is the user-dependent half of a selection problem: where the user
// stands and what its budget converts to. The engine supplies the
// round-dependent half (candidates and their prices).
type Spec struct {
	// Start is the user's current location.
	Start geo.Point
	// MaxDistance is the travel budget in meters (speed times time
	// budget).
	MaxDistance float64
	// CostPerMeter converts traveled distance to cost.
	CostPerMeter float64
	// PerTaskDistance is extra budget consumed per selected task
	// (sensing time times speed); zero when sensing is instantaneous.
	PerTaskDistance float64
}

// ProblemInto assembles one actor's selection problem for the current
// round into a caller-owned candidate buffer, returning the problem and
// the (possibly re-grown) buffer: every task of the open snapshot within
// the actor's reach (selection.Reachable) that still accepts measurements
// and that the actor has not contributed to, priced at this round's
// rewards, in board order. Prices are read by snapshot position
// (RewardAt) and contributions through task.State.Contributed (a bit
// mask, then a binary search), so assembling a problem makes no hash
// lookup. The round's shared inputs
// were validated by Reprice, so the problem is marked CandidatesValid and
// solvers skip the per-candidate re-validation.
//
// Dropping the unreachable tasks changes no plan: every solver filters
// its candidates through the same reach test first, so it sees the same
// reachable tasks in the same order either way. The test runs before any
// per-task state lookup because on a large board it rejects almost
// everything, most of it with a cheap axis test before the square root.
// A NaN budget keeps every candidate; Validate then rejects the problem
// exactly as before.
//
// When the actor's reach box spans a small part of the snapshot, only the
// reach index's cells under the box are visited (see reachSpan): the
// snapshot positions passing the axis test are sorted back into board
// order and then offered. Each visited task goes through exactly the
// checks of the full scan, in the same order, so the candidate list is
// byte-identical.
//
// ProblemInto only reads engine state, so any number of goroutines may
// call it concurrently (over distinct buffers) between engine mutations.
func (e *Engine) ProblemInto(spec Spec, who Actor, buf []selection.Candidate) (selection.Problem, []selection.Candidate) {
	p := selection.Problem{
		Start:           spec.Start,
		MaxDistance:     spec.MaxDistance,
		CostPerMeter:    spec.CostPerMeter,
		PerTaskDistance: spec.PerTaskDistance,
		CandidatesValid: true,
	}
	buf = buf[:0]
	id := who.ActorID()
	start, ovh, budget := spec.Start, spec.PerTaskDistance, spec.MaxDistance
	if c0, c1, r0, r1, ok := e.reachSpan(start, ovh, budget); ok {
		// Concurrent callers share no engine scratch, so the positions go
		// to the stack: 64 covers a reach box's share of a uniform
		// 1000-task snapshot (at most 1/reachShare² of it).
		var arr [64]int
		pos := arr[:0]
		for row := r0; row <= r1; row++ {
			locs, idx := e.reach.Run(row, c0, c1)
			for k, loc := range locs {
				if !axisOutOfReach(start, loc, ovh, budget) {
					pos = append(pos, idx[k])
				}
			}
		}
		slices.Sort(pos)
		for _, i := range pos {
			buf = e.offer(buf, i, start, ovh, budget, id)
		}
	} else {
		// The linear scan inlines offer's checks: a call per task costs
		// about a tenth of a paper-sized scan.
		for i, loc := range e.openLocs {
			if axisOutOfReach(start, loc, ovh, budget) || !selection.Reachable(start, loc, ovh, budget) {
				continue
			}
			st := e.open[i]
			if !st.OpenAt(e.round) || st.Contributed(id) {
				continue
			}
			reward, priced := e.RewardAt(i)
			if e.cfg.RequirePriced && !priced {
				continue
			}
			buf = append(buf, selection.Candidate{ID: st.ID, Location: loc, Reward: reward})
		}
	}
	p.Candidates = buf
	return p, buf
}

// axisOutOfReach is the exact cheap reject before the square root: Dist
// is math.Hypot(dx, dy), and Hypot(dx, dy) >= max(|dx|, |dy|) — it
// scales by the larger magnitude m and returns m*sqrt(1+q*q) with q <= 1,
// and sqrt(1+q*q) >= 1 survives IEEE rounding because rounding is
// monotone. Adding ovh preserves the order for the same reason, so
// |dx|+ovh > budget (or |dy|+ovh > budget) implies Dist+ovh > budget: the
// task fails Reachable too. Comparisons with a NaN are false, so a NaN
// budget rejects nothing here.
func axisOutOfReach(start, loc geo.Point, ovh, budget float64) bool {
	return math.Abs(loc.X-start.X)+ovh > budget || math.Abs(loc.Y-start.Y)+ovh > budget
}

// offer appends open-snapshot task i to buf if it passes the rest of
// ProblemInto's checks, in order: reach, still open, not yet measured by
// the actor, priced when pricing is required. ProblemInto's linear scan
// repeats these checks inline; TestProblemIntoGridMatchesLinearScan
// fails if the two drift apart.
func (e *Engine) offer(buf []selection.Candidate, i int, start geo.Point, ovh, budget float64, id int) []selection.Candidate {
	loc := e.openLocs[i]
	if !selection.Reachable(start, loc, ovh, budget) {
		return buf
	}
	st := e.open[i]
	if !st.OpenAt(e.round) || st.Contributed(id) {
		return buf
	}
	reward, priced := e.RewardAt(i)
	if e.cfg.RequirePriced && !priced {
		return buf
	}
	return append(buf, selection.Candidate{ID: st.ID, Location: loc, Reward: reward})
}

// indexReach rebuilds the reach index over the open snapshot's
// locations, given their bounding box and whether all are finite: cells
// of side max(w, h)/ceil(sqrt(n)) hold about one task each. Index
// entries are snapshot positions, so the scan order within a cell is
// board order. With a non-finite location, or all tasks at one point,
// there is no index and ProblemInto scans linearly.
func (e *Engine) indexReach(box geo.Rect, finite bool) {
	e.reachOK = false
	n := len(e.openLocs)
	side := math.Max(box.Width(), box.Height()) / math.Ceil(math.Sqrt(float64(n)))
	if n < 2 || !finite || !(side > 0) {
		return
	}
	// A snapshot on one line gets one cell of depth across it.
	box.Max.X = math.Max(box.Max.X, box.Min.X+side)
	box.Max.Y = math.Max(box.Max.Y, box.Min.Y+side)
	if e.reach.Reset(box, side, e.openLocs) != nil {
		return
	}
	e.reachMaxHalf = math.Max(box.Width(), box.Height()) / (2 * reachShare)
	e.reachOK = true
}

// reachShare bounds the reach boxes ProblemInto answers from the index:
// a box's side may be at most 1/reachShare of the snapshot's longer
// extent, so it covers at most 1/reachShare² of the snapshot's bounding
// square. The grid path sorts the positions it keeps back into board
// order, which costs more than the axis tests it saves once the box
// covers much of the snapshot: on uniform boards of 20 to 1000 tasks it
// wins while the box covers up to about a tenth of the square and loses
// beyond.
const reachShare = 4

// reachSpan returns the span of reach-index cells that can hold a task
// passing the axis test from start, and false when ProblemInto must scan
// the whole snapshot instead: no index this round, a non-finite start, a
// NaN or negative per-task overhead (a NaN keeps every task, a negative
// overhead widens reach past the budget), or a box too large for the
// index to pay (see reachShare) — which includes NaN and infinite
// budgets. A negative budget gives an inverted box; whatever it spans
// fails the axis test, as every task does in the linear scan.
//
// The box is exact, not approximate. A task passing the axis test has
// fl(|fl(loc.X-start.X)|+ovh) <= budget, so with ovh >= 0 its rounded
// |dx| is at most budget and its exact |dx| at most budget·(1+2^-52). The
// half-width h adds a margin of 1e-9 relative to budget and the start's
// magnitude, far above the rounding of h and of start.X±h, so the box
// corners bound every such task's coordinates; the index's cell mapping
// is monotone, so every such task is bucketed inside the span. (When the
// margin underflows, every quantity involved is subnormal or nearly so
// and the arithmetic is exact.)
func (e *Engine) reachSpan(start geo.Point, ovh, budget float64) (c0, c1, r0, r1 int, ok bool) {
	if !e.reachOK || !start.IsFinite() || !(ovh >= 0) {
		return 0, 0, 0, 0, false
	}
	h := budget + (math.Abs(budget)+math.Abs(start.X)+math.Abs(start.Y))*1e-9
	if !(h <= e.reachMaxHalf) {
		return 0, 0, 0, 0, false
	}
	c0, c1, r0, r1 = e.reach.Cells(geo.Rect{Min: start, Max: start}.Expand(h))
	return c0, c1, r0, r1, true
}
