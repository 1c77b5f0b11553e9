// Package selection implements the distributed task selection problem of
// Section V: at each round a mobile user chooses an ordered set of tasks
// maximizing profit (total reward minus travel cost) subject to a travel
// distance budget. The problem generalizes orienteering and is NP-hard
// (Theorem 1).
//
// Three solvers are provided:
//
//   - DP: the paper's optimal bitmask dynamic program (Eq. 12), O(m^2 2^m);
//   - Greedy: the paper's O(m^2) marginal-profit heuristic;
//   - BruteForce: an exhaustive reference used to validate DP in tests.
//
// plus a 2-opt order-improvement pass usable on any plan.
//
// The simulation calls Select once per user per round, so the package is
// built for a hot loop: a RoundContext shares the round's task-pair
// distance table across all users, and every solver keeps grow-only
// scratch buffers that make steady-state calls allocation-free apart from
// the returned Plan. Because of that scratch, an Algorithm value is NOT
// safe for concurrent use; give each goroutine its own instance (they are
// cheap — the scratch grows on first use).
package selection

import (
	"errors"
	"fmt"
	"math"

	"paydemand/internal/geo"
	"paydemand/internal/task"
)

// Candidate is one selectable task as seen by a user in one round: its
// location and the reward published for this round.
type Candidate struct {
	// ID identifies the task.
	ID task.ID `json:"id"`
	// Location is the task's location.
	Location geo.Point `json:"location"`
	// Reward is the per-measurement reward offered this round.
	Reward float64 `json:"reward"`
	// CtxIndex is the candidate's task index in the Problem's shared
	// RoundContext; meaningful only when Problem.Ctx is set, in which case
	// Location must equal Ctx.Location(CtxIndex).
	CtxIndex int `json:"-"`
}

// Problem is one user's task selection instance at one round.
type Problem struct {
	// Start is the user's current location.
	Start geo.Point `json:"start"`
	// MaxDistance is the travel budget in meters (the time budget times
	// the speed; Gamma(T) <= B in Eq. 1).
	MaxDistance float64 `json:"max_distance"`
	// CostPerMeter converts traveled distance to cost dollars.
	CostPerMeter float64 `json:"cost_per_meter"`
	// PerTaskDistance is extra budget consumed by each selected task, in
	// meters. The paper assumes data sensing time is negligible next to
	// travel time; setting this to sensing-time x speed lifts that
	// assumption. Sensing consumes time (budget) but not movement cost.
	PerTaskDistance float64 `json:"per_task_distance"`
	// Candidates are the tasks available to this user: open, not yet
	// contributed to by them, and — when the round engine assembles the
	// problem — within their reach (see Reachable). Solvers consider only
	// reachable candidates either way, so the engine's bound changes no
	// plan.
	Candidates []Candidate `json:"candidates"`
	// Ctx is the optional shared solver context. When set,
	// solvers look task-pair distances up in its precomputed table (via
	// each candidate's CtxIndex) instead of recomputing them per call.
	// Results are bit-for-bit identical either way.
	Ctx *RoundContext `json:"-"`
	// CandidatesValid asserts that the caller has already validated the
	// candidate set for this round (distinct ids, finite locations,
	// non-NaN rewards, consistent CtxIndex linkage), letting Validate skip
	// the per-candidate scan. The simulation validates each round's shared
	// task set once instead of once per user selection call.
	CandidatesValid bool `json:"-"`
}

// Common errors.
var (
	ErrDuplicateCandidate = errors.New("selection: duplicate candidate id")
	ErrTooManyTasks       = errors.New("selection: too many candidates for exact solver")
	ErrBadProblem         = errors.New("selection: invalid problem")
)

// dupScanThreshold is the largest candidate count checked for duplicate
// ids with a quadratic scan. Below it the scan is both faster than a map
// and allocation-free, which matters because Validate runs once per user
// selection call; larger instances fall back to the map.
const dupScanThreshold = 64

// Validate checks the problem instance. It is allocation-free for
// instances of at most dupScanThreshold candidates.
func (p Problem) Validate() error {
	if !p.Start.IsFinite() {
		return fmt.Errorf("%w: non-finite start %v", ErrBadProblem, p.Start)
	}
	if math.IsNaN(p.MaxDistance) {
		return fmt.Errorf("%w: NaN distance budget", ErrBadProblem)
	}
	if p.CostPerMeter < 0 || math.IsNaN(p.CostPerMeter) {
		return fmt.Errorf("%w: cost per meter %v", ErrBadProblem, p.CostPerMeter)
	}
	if p.PerTaskDistance < 0 || math.IsNaN(p.PerTaskDistance) {
		return fmt.Errorf("%w: per-task distance %v", ErrBadProblem, p.PerTaskDistance)
	}
	if p.CandidatesValid {
		return nil
	}
	var seen map[task.ID]bool
	if len(p.Candidates) > dupScanThreshold {
		seen = make(map[task.ID]bool, len(p.Candidates))
	}
	for j, c := range p.Candidates {
		if seen != nil {
			if seen[c.ID] {
				return fmt.Errorf("%w: %d", ErrDuplicateCandidate, c.ID)
			}
			seen[c.ID] = true
		} else {
			for i := 0; i < j; i++ {
				if p.Candidates[i].ID == c.ID {
					return fmt.Errorf("%w: %d", ErrDuplicateCandidate, c.ID)
				}
			}
		}
		if !c.Location.IsFinite() {
			return fmt.Errorf("%w: candidate %d non-finite location", ErrBadProblem, c.ID)
		}
		if math.IsNaN(c.Reward) {
			return fmt.Errorf("%w: candidate %d NaN reward", ErrBadProblem, c.ID)
		}
		if p.Ctx != nil {
			if c.CtxIndex < 0 || c.CtxIndex >= p.Ctx.n {
				return fmt.Errorf("%w: candidate %d context index %d out of range [0, %d)",
					ErrBadProblem, c.ID, c.CtxIndex, p.Ctx.n)
			}
			if c.Location != p.Ctx.locs[c.CtxIndex] {
				return fmt.Errorf("%w: candidate %d location %v disagrees with context location %v",
					ErrBadProblem, c.ID, c.Location, p.Ctx.locs[c.CtxIndex])
			}
		}
	}
	return nil
}

// Plan is the outcome of task selection: the ordered visits and the
// associated accounting. A zero Plan means "perform nothing" and is the
// rational choice when no positive-profit plan exists.
type Plan struct {
	// Order is the task visiting order.
	Order []task.ID `json:"order"`
	// Path is the walked path: the start location followed by the task
	// locations in visiting order. Empty for an empty plan.
	Path geo.Path `json:"path"`
	// Distance is the total travel distance in meters.
	Distance float64 `json:"distance"`
	// Reward is the total reward collected.
	Reward float64 `json:"reward"`
	// Cost is the travel cost (Distance x CostPerMeter).
	Cost float64 `json:"cost"`
	// Profit is Reward - Cost.
	Profit float64 `json:"profit"`
}

// Empty reports whether the plan selects no tasks.
func (pl Plan) Empty() bool { return len(pl.Order) == 0 }

// Touches reports whether the plan visits the given task. Plans are short
// (a handful of tasks within one travel budget), so a linear scan beats
// any index. The speculative round engine uses it to detect plans whose
// committed work an earlier user invalidated.
func (pl Plan) Touches(id task.ID) bool {
	for _, o := range pl.Order {
		if o == id {
			return true
		}
	}
	return false
}

// Len returns the number of selected tasks.
func (pl Plan) Len() int { return len(pl.Order) }

// Algorithm is a task selection solver. Implementations reuse internal
// scratch between calls and are therefore not safe for concurrent use;
// create one instance per goroutine.
type Algorithm interface {
	// Name returns a short identifier ("dp", "greedy", ...).
	Name() string
	// Select solves the problem. A feasible problem always yields a plan;
	// if no positive-profit plan exists the empty plan is returned.
	Select(p Problem) (Plan, error)
}

// candDist returns the distance between candidates i and j, looked up in
// the shared round context when one is attached and recomputed otherwise.
// Both paths produce bit-for-bit identical values: the context stores the
// result of the same geo.Point.Dist call.
func (p *Problem) candDist(i, j int) float64 {
	if p.Ctx != nil {
		return p.Ctx.dist[p.Candidates[i].CtxIndex*p.Ctx.n+p.Candidates[j].CtxIndex]
	}
	return p.Candidates[i].Location.Dist(p.Candidates[j].Location)
}

// legDist returns the distance of the path leg from candidate i to
// candidate j, where i == -1 denotes the user's start location.
func (p *Problem) legDist(i, j int) float64 {
	if i < 0 {
		return p.Start.Dist(p.Candidates[j].Location)
	}
	return p.candDist(i, j)
}

// buildPlan assembles a Plan from an ordered candidate index sequence,
// recomputing distance and accounting from scratch (the single source of
// truth for plan arithmetic across all solvers). The Order and Path slices
// are freshly allocated: a Plan outlives the solver call that produced it.
func buildPlan(p *Problem, orderIdx []int) Plan {
	if len(orderIdx) == 0 {
		return Plan{}
	}
	plan := Plan{
		Order: make([]task.ID, 0, len(orderIdx)),
		Path:  make(geo.Path, 0, len(orderIdx)+1),
	}
	plan.Path = append(plan.Path, p.Start)
	prev := -1
	for _, idx := range orderIdx {
		c := p.Candidates[idx]
		plan.Order = append(plan.Order, c.ID)
		plan.Path = append(plan.Path, c.Location)
		plan.Distance += p.legDist(prev, idx)
		plan.Reward += c.Reward
		prev = idx
	}
	plan.Cost = plan.Distance * p.CostPerMeter
	plan.Profit = plan.Reward - plan.Cost
	return plan
}

// Reachable reports whether a task at loc can be visited at all by a user
// standing at start: its direct distance plus the per-task overhead does
// not exceed the travel budget. It is the one reach test of the codebase —
// the solvers' candidate filter, the engine's candidate assembly, and the
// simulator's speculative-replay check all call it, so a candidate the
// engine drops is exactly one no solver would have considered.
//
// The test is written as the negation of "out of reach" (d+ovh > budget),
// so a NaN budget or overhead counts as reachable: callers that assemble
// candidates keep everything and leave the rejection to Validate, which
// every solver runs before filtering.
func Reachable(start, loc geo.Point, perTaskDistance, maxDistance float64) bool {
	return !(start.Dist(loc)+perTaskDistance > maxDistance)
}

// reachableInto appends to buf[:0] the indices of candidates that can be
// visited at all within the budget (see Reachable) and offer a positive
// reward. Dropping the rest is sound: visiting a task always consumes at
// least the direct distance plus its overhead, and a non-positive-reward
// task can never increase profit since detours are never free. Callers
// validate the problem first, so no budget here is NaN. Callers pass
// solver-owned scratch so steady state is allocation-free.
func reachableInto(p *Problem, buf []int) []int {
	out := buf[:0]
	for i, c := range p.Candidates {
		if c.Reward <= 0 {
			continue
		}
		if Reachable(p.Start, c.Location, p.PerTaskDistance, p.MaxDistance) {
			out = append(out, i)
		}
	}
	return out
}

// growFloats returns a zero-filled-on-demand float slice of length n,
// reusing buf's storage when possible. Contents are unspecified; callers
// must initialize every element they read.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growInts is growFloats for int slices.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growBools is growFloats for bool slices.
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// budgetUsed returns the budget a plan consumes: travel distance plus the
// per-task overhead of each visit.
func (p Problem) budgetUsed(pl Plan) float64 {
	return pl.Distance + p.PerTaskDistance*float64(len(pl.Order))
}
