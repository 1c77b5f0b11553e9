package engine

import (
	"paydemand/internal/geo"
	"paydemand/internal/selection"
)

// The shared solver context is one distance table over the whole board,
// indexed by board position. Task locations never move, so the table is
// built once per board — lazily, by the first successful Reprice, so
// constructing an engine stays cheap — and is never written again. Each
// round merely publishes it (a successful Reprice) and unpublishes it
// (BeginRound, Clear, a failed Reprice); candidates link to it through
// their board position, so the open set shrinking round by round costs
// nothing.
//
// Because the table is immutable for its board's lifetime, a solve that
// keeps reading it after the driver's lock is released needs no pin: the
// next reprice publishes the very same table. SetBoard drops the table
// and the next reprice allocates a fresh one instead of recycling the old
// storage, so a solve still holding the previous board's table keeps a
// valid, unchanged copy until the garbage collector reclaims it.

// Context returns the current round's shared solver context, or nil when
// none is published (context disabled, no open tasks, not repriced, or
// the last reprice failed). The context is immutable and stays readable
// indefinitely, even after the round advances or the board is replaced.
func (e *Engine) Context() *selection.RoundContext { return e.ctx }

// publishContext publishes the board's distance table, building it on
// first use.
func (e *Engine) publishContext() error {
	if e.table == nil {
		locs := make([]geo.Point, len(e.states))
		for i, st := range e.states {
			locs[i] = st.Location
		}
		t, err := selection.NewRoundContext(locs)
		if err != nil {
			return err
		}
		e.table = t
	}
	e.ctx = e.table
	return nil
}
