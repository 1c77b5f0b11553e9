package engine

import (
	"math"

	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// Actor is the engine's view of one acting user when assembling its
// candidate set: an identity to check against the board's contribution
// records, plus the actor's own memory of performed tasks (drivers that
// track none use Worker). *agent.User implements Actor.
type Actor interface {
	// ActorID is the user's ID as recorded in task contributions.
	ActorID() int
	// HasDone reports whether the actor already performed the task.
	HasDone(id task.ID) bool
}

// Worker is the Actor of a driver with no user-side memory (the HTTP
// platform knows only the board's contribution records): just an ID.
type Worker int

// ActorID implements Actor.
func (w Worker) ActorID() int { return int(w) }

// HasDone implements Actor.
func (Worker) HasDone(task.ID) bool { return false }

// Spec is the user-dependent half of a selection problem: where the user
// stands and what its budget converts to. The engine supplies the
// round-dependent half (candidates, prices, shared context).
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
// rewards, in board order, linked to the shared context by board
// position. The round's shared inputs were validated by Reprice, so the
// problem is marked CandidatesValid and solvers skip the per-candidate
// re-validation.
//
// Dropping the unreachable tasks changes no plan: every solver filters
// its candidates through the same reach test first, so it sees the same
// reachable tasks in the same order either way. The test runs before any
// per-task state lookup because on a large board it rejects almost
// everything, most of it with a cheap axis test before the square root.
// A NaN budget keeps every candidate; Validate then rejects the problem
// exactly as before.
//
// ProblemInto only reads engine state, so any number of goroutines may
// call it concurrently (over distinct buffers) between engine mutations
// — the simulator's speculative workers build every user's problem of a
// round in parallel this way.
func (e *Engine) ProblemInto(spec Spec, who Actor, buf []selection.Candidate) (selection.Problem, []selection.Candidate) {
	p := selection.Problem{
		Start:           spec.Start,
		MaxDistance:     spec.MaxDistance,
		CostPerMeter:    spec.CostPerMeter,
		PerTaskDistance: spec.PerTaskDistance,
		Ctx:             e.ctx,
		CandidatesValid: true,
	}
	buf = buf[:0]
	id := who.ActorID()
	start, ovh, budget := spec.Start, spec.PerTaskDistance, spec.MaxDistance
	for i, loc := range e.openLocs {
		// Exact cheap reject before the square root: Dist is
		// math.Hypot(dx, dy), and Hypot(dx, dy) >= max(|dx|, |dy|) — it
		// scales by the larger magnitude m and returns m*sqrt(1+q*q) with
		// q <= 1, and sqrt(1+q*q) >= 1 survives IEEE rounding because
		// rounding is monotone. Adding ovh preserves the order for the
		// same reason, so |dx|+ovh > budget (or |dy|+ovh > budget) implies
		// Dist+ovh > budget: the task fails Reachable too. Comparisons
		// with a NaN are false, so a NaN budget rejects nothing here.
		if math.Abs(loc.X-start.X)+ovh > budget || math.Abs(loc.Y-start.Y)+ovh > budget {
			continue
		}
		if !selection.Reachable(start, loc, ovh, budget) {
			continue
		}
		st := e.open[i]
		if !st.OpenAt(e.round) || st.Contributed(id) || who.HasDone(st.ID) {
			continue
		}
		reward, priced := e.rewards[st.ID]
		if e.cfg.RequirePriced && !priced {
			continue
		}
		buf = append(buf, selection.Candidate{
			ID:       st.ID,
			Location: loc,
			Reward:   reward,
			CtxIndex: e.openPos[i],
		})
	}
	p.Candidates = buf
	return p, buf
}
