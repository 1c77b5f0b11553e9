package sim

import (
	"encoding/json"
	"io"

	"paydemand/internal/metrics"
	"paydemand/internal/selection"
	"paydemand/internal/task"
)

// TraceEvent is one line of a simulation trace (JSONL). Kind is one of
// "round_start", "user_planned", "round_end".
type TraceEvent struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`
	// Rewards is set on round_start: the published reward per open task.
	Rewards map[task.ID]float64 `json:"rewards,omitempty"`
	// UserID, Candidates, Plan are set on user_planned. Candidates counts
	// the tasks the engine offered the user: open, not yet contributed to,
	// and within the user's reach.
	UserID     int             `json:"user_id,omitempty"`
	Candidates int             `json:"candidates,omitempty"`
	Plan       *selection.Plan `json:"plan,omitempty"`
	// Stats is set on round_end.
	Stats *metrics.RoundStats `json:"stats,omitempty"`
}

// TraceObserver streams every simulation event as one JSON object per
// line, suitable for offline analysis (jq, pandas, ...). Encoding errors
// are remembered and returned by Err; the simulation itself is never
// interrupted by a failing trace sink.
type TraceObserver struct {
	enc *json.Encoder
	err error
}

var _ Observer = (*TraceObserver)(nil)

// NewTraceObserver writes JSONL trace events to w.
func NewTraceObserver(w io.Writer) *TraceObserver {
	return &TraceObserver{enc: json.NewEncoder(w)}
}

// Err returns the first encoding error, if any.
func (t *TraceObserver) Err() error { return t.err }

func (t *TraceObserver) emit(ev TraceEvent) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
}

// RoundStart implements Observer.
func (t *TraceObserver) RoundStart(round int, rewards map[task.ID]float64) {
	t.emit(TraceEvent{Kind: "round_start", Round: round, Rewards: rewards})
}

// UserPlanned implements Observer.
func (t *TraceObserver) UserPlanned(round, userID int, p selection.Problem, plan selection.Plan) {
	t.emit(TraceEvent{
		Kind:       "user_planned",
		Round:      round,
		UserID:     userID,
		Candidates: len(p.Candidates),
		Plan:       &plan,
	})
}

// RoundEnd implements Observer.
func (t *TraceObserver) RoundEnd(round int, stats metrics.RoundStats) {
	t.emit(TraceEvent{Kind: "round_end", Round: round, Stats: &stats})
}
