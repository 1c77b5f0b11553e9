package server

import (
	"encoding/json"
	"fmt"
	"io"

	"paydemand/internal/geo"
	"paydemand/internal/reputation"
	"paydemand/internal/task"
)

// Snapshot is the platform's serializable campaign state, sufficient to
// resume a campaign after a restart (task progress, current round, worker
// registry, uploaded values). Mechanism and configuration are NOT part of
// the snapshot; the restarted platform must be constructed with the same
// Config.
type Snapshot struct {
	// Version guards against incompatible snapshot formats.
	Version int `json:"version"`
	// Round is the current sensing round.
	Round int `json:"round"`
	// Done reports a finished campaign.
	Done bool `json:"done"`
	// NextWorkerID is the last worker ID handed out; the next register
	// gets NextWorkerID+1.
	NextWorkerID int `json:"next_worker_id"`
	// Workers maps worker IDs, exactly 1..NextWorkerID, to their last
	// known locations.
	Workers map[int]geo.Point `json:"workers"`
	// Board is the task progress.
	Board task.BoardSnapshot `json:"board"`
	// Contributions are the uploaded readings per task.
	Contributions map[task.ID][]reputation.Contribution `json:"contributions,omitempty"`
}

// snapshotVersion is the current format.
const snapshotVersion = 1

// Snapshot captures the platform's campaign state.
func (p *Platform) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := Snapshot{
		Version:       snapshotVersion,
		Round:         p.round,
		Done:          p.done,
		NextWorkerID:  len(p.workers),
		Workers:       make(map[int]geo.Point, len(p.workers)),
		Board:         p.eng.Board().Snapshot(),
		Contributions: make(map[task.ID][]reputation.Contribution, len(p.contribs)),
	}
	for i, loc := range p.workers {
		snap.Workers[i+1] = loc
	}
	// A map-to-map copy is order-independent, and encoding/json sorts map
	// keys when the snapshot is serialized.
	//paylint:sorted map-to-map copy; destination is a map, so insertion order is immaterial
	for id, cs := range p.contribs {
		snap.Contributions[id] = append([]reputation.Contribution(nil), cs...)
	}
	return snap
}

// Restore replaces the platform's campaign state with the snapshot and
// reprices the current round. The platform must have been constructed
// with the same task set: every snapshot task must match the configured
// task field for field, no contribution may be dated after the
// snapshot's round, and the worker IDs must be exactly 1..NextWorkerID.
func (p *Platform) Restore(snap Snapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("server: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Round < 1 {
		return fmt.Errorf("server: snapshot round %d, want >= 1", snap.Round)
	}
	for _, ts := range snap.Board.Tasks {
		for _, c := range ts.Contributions {
			if c.Round > snap.Round {
				return fmt.Errorf("server: snapshot task %d has a contribution at round %d, after snapshot round %d",
					ts.Task.ID, c.Round, snap.Round)
			}
		}
	}
	if len(snap.Workers) != snap.NextWorkerID {
		return fmt.Errorf("server: snapshot has %d workers, want ids 1..%d", len(snap.Workers), snap.NextWorkerID)
	}
	workers := make([]geo.Point, len(snap.Workers))
	for i := range workers {
		loc, ok := snap.Workers[i+1]
		if !ok {
			return fmt.Errorf("server: snapshot lacks worker %d of 1..%d", i+1, snap.NextWorkerID)
		}
		workers[i] = loc
	}
	board, err := task.RestoreBoard(snap.Board)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if board.Len() != p.eng.Board().Len() {
		return fmt.Errorf("server: snapshot has %d tasks, platform configured with %d",
			board.Len(), p.eng.Board().Len())
	}
	for _, want := range p.eng.Board().States() {
		got := board.Get(want.ID)
		if got == nil {
			return fmt.Errorf("server: snapshot missing task %d", want.ID)
		}
		if got.Task != want.Task {
			return fmt.Errorf("server: snapshot task %+v, platform configured with %+v", got.Task, want.Task)
		}
	}
	p.eng.SetBoard(board)
	p.round = snap.Round
	p.done = snap.Done
	p.workers = workers
	p.contribs = make(map[task.ID][]reputation.Contribution, len(snap.Contributions))
	//paylint:sorted map-to-map copy; destination is a map, so insertion order is immaterial
	for id, cs := range snap.Contributions {
		p.contribs[id] = append([]reputation.Contribution(nil), cs...)
	}
	if p.done {
		// SetBoard already cleared the published round state.
		p.repriceErr = nil
		return nil
	}
	return p.repriceLocked()
}

// WriteSnapshot serializes the current campaign state as JSON to w.
func (p *Platform) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot())
}

// ReadSnapshot parses a snapshot previously written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("server: parse snapshot: %w", err)
	}
	return snap, nil
}
