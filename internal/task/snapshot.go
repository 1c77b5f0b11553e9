package task

import (
	"fmt"
	"sort"
)

// Snapshot is the serializable state of one task, used to persist and
// restore campaigns across platform restarts.
type Snapshot struct {
	// Task is the immutable specification.
	Task Task `json:"task"`
	// Contributions lists contributing users with the round each
	// contributed in, in contribution order.
	Contributions []ContributionRecord `json:"contributions,omitempty"`
	// RewardPaid is the total reward paid for this task.
	RewardPaid float64 `json:"reward_paid"`
}

// ContributionRecord is one recorded measurement for snapshotting.
type ContributionRecord struct {
	User  int `json:"user"`
	Round int `json:"round"`
}

// Snapshot captures the task's current state exactly: every contributor
// with its contribution round, sorted by round then user for stable
// output.
func (s *State) Snapshot() Snapshot {
	snap := Snapshot{Task: s.Task, RewardPaid: s.rewardPaid}
	for _, c := range s.contributors {
		snap.Contributions = append(snap.Contributions, ContributionRecord{User: c.user, Round: c.round})
	}
	sort.Slice(snap.Contributions, func(i, j int) bool {
		if snap.Contributions[i].Round != snap.Contributions[j].Round {
			return snap.Contributions[i].Round < snap.Contributions[j].Round
		}
		return snap.Contributions[i].User < snap.Contributions[j].User
	})
	return snap
}

// RestoreState rebuilds a State from a snapshot.
func RestoreState(snap Snapshot) (*State, error) {
	st, err := NewState(snap.Task)
	if err != nil {
		return nil, err
	}
	if len(snap.Contributions) > 0 {
		perMeasurement := snap.RewardPaid / float64(len(snap.Contributions))
		for _, c := range snap.Contributions {
			if err := st.Record(c.User, c.Round, perMeasurement); err != nil {
				return nil, fmt.Errorf("task: restore task %d: %w", snap.Task.ID, err)
			}
		}
		// Replaying an even split can drift from the true total by float
		// error; pin the exact figure.
		st.rewardPaid = snap.RewardPaid
	}
	return st, nil
}

// BoardSnapshot is the serializable state of a whole board.
type BoardSnapshot struct {
	Tasks []Snapshot `json:"tasks"`
}

// Snapshot captures every task's state in creation order.
func (b *Board) Snapshot() BoardSnapshot {
	out := BoardSnapshot{Tasks: make([]Snapshot, len(b.states))}
	for i, st := range b.states {
		out.Tasks[i] = st.Snapshot()
	}
	return out
}

// RestoreBoard rebuilds a board from a snapshot.
func RestoreBoard(snap BoardSnapshot) (*Board, error) {
	b := &Board{byID: make(map[ID]*State, len(snap.Tasks))}
	for _, ts := range snap.Tasks {
		if _, dup := b.byID[ts.Task.ID]; dup {
			return nil, fmt.Errorf("task: duplicate task id %d in snapshot", ts.Task.ID)
		}
		st, err := RestoreState(ts)
		if err != nil {
			return nil, err
		}
		b.states = append(b.states, st)
		b.byID[st.ID] = st
	}
	return b, nil
}
