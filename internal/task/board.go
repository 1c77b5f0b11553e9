package task

import "fmt"

// Board holds the state of every task in one simulation and provides the
// per-round views the platform needs: the open task set, aggregate progress
// and the coverage/completeness metrics the paper reports.
//
// Board is not safe for concurrent mutation.
type Board struct {
	states []*State
	byID   map[ID]*State
}

// NewBoard creates a board from task specifications. Task IDs must be
// unique; specifications are validated. The states live in one slab
// that the board's pointers index into.
func NewBoard(tasks []Task) (*Board, error) {
	slab := make([]State, len(tasks))
	b := &Board{states: make([]*State, len(tasks)), byID: make(map[ID]*State, len(tasks))}
	for i, t := range tasks {
		if _, dup := b.byID[t.ID]; dup {
			return nil, fmt.Errorf("task: duplicate task id %d", t.ID)
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		s := &slab[i]
		s.Task = t
		b.states[i] = s
		b.byID[t.ID] = s
	}
	return b, nil
}

// Len returns the number of tasks on the board.
func (b *Board) Len() int { return len(b.states) }

// Get returns the state for id, or nil if unknown.
func (b *Board) Get(id ID) *State { return b.byID[id] }

// States returns the board's task states in creation order. The returned
// slice is a copy; the pointed-to states are shared.
func (b *Board) States() []*State {
	out := make([]*State, len(b.states))
	copy(out, b.states)
	return out
}

// OpenAt returns the states of tasks open at round k (incomplete and not
// past deadline), in creation order.
func (b *Board) OpenAt(round int) []*State {
	var out []*State
	for _, s := range b.states {
		if s.OpenAt(round) {
			out = append(out, s)
		}
	}
	return out
}

// AllSettledAt reports whether every task is either complete or expired at
// round k, i.e. there is nothing left to publish. It stops at the first
// open task and allocates nothing.
func (b *Board) AllSettledAt(round int) bool {
	for _, s := range b.states {
		if s.OpenAt(round) {
			return false
		}
	}
	return true
}

// TotalRequired returns the sum of required measurements over all tasks
// (the Sigma phi_i of Eq. 9).
func (b *Board) TotalRequired() int {
	total := 0
	for _, s := range b.states {
		total += s.Required
	}
	return total
}

// TotalReceived returns the total measurements received across all tasks.
func (b *Board) TotalReceived() int {
	total := 0
	for _, s := range b.states {
		total += s.Received()
	}
	return total
}

// TotalRewardPaid returns the total rewards paid across all tasks.
func (b *Board) TotalRewardPaid() float64 {
	total := 0.0
	for _, s := range b.states {
		total += s.RewardPaid()
	}
	return total
}

// Coverage returns the fraction of tasks with at least one measurement
// (Section VI-B). Boards with no tasks have coverage 1.
func (b *Board) Coverage() float64 {
	if len(b.states) == 0 {
		return 1
	}
	covered := 0
	for _, s := range b.states {
		if s.Covered() {
			covered++
		}
	}
	return float64(covered) / float64(len(b.states))
}

// OverallCompleteness returns the mean over tasks of the completing
// progress capped at 1, counting only measurements received by each task's
// deadline (Section VI-C: "how good of task completeness before their
// deadlines"). Boards with no tasks have completeness 1.
//
// Every received measurement counts: Record refuses any round past the
// task's deadline, restored contributions included, so a task never
// holds a measurement made after it.
func (b *Board) OverallCompleteness() float64 {
	if len(b.states) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range b.states {
		p := float64(s.received) / float64(s.Required)
		if p > 1 {
			p = 1
		}
		sum += p
	}
	return sum / float64(len(b.states))
}

// StrictCompleteness returns the fraction of tasks fully completed on or
// before their deadline.
func (b *Board) StrictCompleteness() float64 {
	if len(b.states) == 0 {
		return 1
	}
	done := 0
	for _, s := range b.states {
		if s.completedRound > 0 && s.completedRound <= s.Deadline {
			done++
		}
	}
	return float64(done) / float64(len(b.states))
}

// MeasurementCounts returns each task's received count, ordered by task
// creation, for the measurement-distribution metrics of Figs. 8(a)/9(a).
func (b *Board) MeasurementCounts() []float64 {
	out := make([]float64, len(b.states))
	for i, s := range b.states {
		out[i] = float64(s.Received())
	}
	return out
}

// AverageRewardPerMeasurement returns total reward paid divided by total
// measurements received (Fig. 9(b)), or 0 with no measurements.
func (b *Board) AverageRewardPerMeasurement() float64 {
	n := b.TotalReceived()
	if n == 0 {
		return 0
	}
	return b.TotalRewardPaid() / float64(n)
}

// MaxDeadline returns the largest deadline on the board, or 0 if empty.
func (b *Board) MaxDeadline() int {
	maxD := 0
	for _, s := range b.states {
		if s.Deadline > maxD {
			maxD = s.Deadline
		}
	}
	return maxD
}
