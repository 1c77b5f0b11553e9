// Package task models location-dependent sensing tasks: their immutable
// specification (location, deadline, required measurement count) and their
// mutable per-simulation state (received measurements, contributors, reward
// accounting).
//
// Rounds are 1-based throughout, matching the paper's notation: the first
// sensing round is k = 1 and a task with deadline tau is expected to be
// completed in rounds 1..tau.
package task

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"paydemand/internal/geo"
)

// ID identifies a sensing task within a Board.
type ID int

// Task is the immutable specification of a location-dependent sensing task
// as published by the platform.
type Task struct {
	// ID is the task identifier, unique within a Board.
	ID ID `json:"id"`
	// Location is where the task must be performed (L_ti).
	Location geo.Point `json:"location"`
	// Deadline is the last round (tau_i, inclusive) by which the task is
	// expected to be completed.
	Deadline int `json:"deadline"`
	// Required is the number of independent measurements the task needs
	// (phi_i). Multiple users must contribute to reach sensing quality.
	Required int `json:"required"`
}

// Validate checks the task specification.
func (t Task) Validate() error {
	if t.Deadline < 1 {
		return fmt.Errorf("task %d: deadline %d, want >= 1", t.ID, t.Deadline)
	}
	if t.Required < 1 {
		return fmt.Errorf("task %d: required measurements %d, want >= 1", t.ID, t.Required)
	}
	if !t.Location.IsFinite() {
		return fmt.Errorf("task %d: non-finite location %v", t.ID, t.Location)
	}
	return nil
}

// Errors returned by State.Record.
var (
	ErrAlreadyContributed = errors.New("task: user already contributed to this task")
	ErrCompleted          = errors.New("task: task already has all required measurements")
	ErrExpired            = errors.New("task: past the task deadline")
	ErrBadRound           = errors.New("task: round must be >= 1")
)

// State is the mutable per-simulation state of one task. It is not safe for
// concurrent use; the simulation engine serializes access per round.
type State struct {
	Task

	received int
	// contributors maps each contributing user to the round it
	// contributed in.
	contributors map[int]int
	// perRound holds one entry per round with a recorded measurement, in
	// ascending round order. It is never indexed by round number: a
	// restored snapshot may carry a contribution at any round up to a
	// deadline as large as Validate allows.
	perRound []roundCount
	// rewardPaid is the total reward paid out for this task so far.
	rewardPaid float64
	// completedRound is the round at which the task reached Required
	// measurements, or 0 if not yet complete.
	completedRound int
	// firstRound is the round of the first received measurement, or 0.
	firstRound int
}

// NewState returns fresh mutable state for the task.
func NewState(t Task) (*State, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &State{
		Task:         t,
		contributors: make(map[int]int),
	}, nil
}

// roundCount is the number of measurements recorded during one round.
type roundCount struct {
	round, n int
}

// Received returns the number of measurements received so far (pi_i).
func (s *State) Received() int { return s.received }

// Progress returns the completing progress pi_i / phi_i in [0, 1].
func (s *State) Progress() float64 {
	p := float64(s.received) / float64(s.Required)
	if p > 1 {
		p = 1
	}
	return p
}

// Complete reports whether the task has all required measurements.
func (s *State) Complete() bool { return s.received >= s.Required }

// ExpiredAt reports whether the task's deadline has passed at round k
// without completion.
func (s *State) ExpiredAt(round int) bool {
	return !s.Complete() && round > s.Deadline
}

// OpenAt reports whether the task accepts measurements at round k: it is
// not complete and its deadline has not passed. Open tasks are the ones the
// platform publishes each round.
func (s *State) OpenAt(round int) bool {
	return !s.Complete() && round >= 1 && round <= s.Deadline
}

// Contributed reports whether the given user has already contributed a
// measurement to this task.
func (s *State) Contributed(user int) bool {
	_, ok := s.contributors[user]
	return ok
}

// Contributors returns the number of distinct contributing users.
func (s *State) Contributors() int { return len(s.contributors) }

// Record adds one measurement from user at the given round, paying reward.
// It enforces the paper's rules: a task accepts measurements only while
// open, and each user contributes to a task at most once.
func (s *State) Record(user, round int, reward float64) error {
	if round < 1 {
		return fmt.Errorf("%w: %d", ErrBadRound, round)
	}
	if s.Complete() {
		return fmt.Errorf("%w: task %d", ErrCompleted, s.ID)
	}
	if round > s.Deadline {
		return fmt.Errorf("%w: task %d deadline %d, round %d", ErrExpired, s.ID, s.Deadline, round)
	}
	if s.Contributed(user) {
		return fmt.Errorf("%w: task %d user %d", ErrAlreadyContributed, s.ID, user)
	}
	s.contributors[user] = round
	s.received++
	s.countAt(round)
	s.rewardPaid += reward
	if s.firstRound == 0 {
		s.firstRound = round
	}
	if s.received >= s.Required {
		s.completedRound = round
	}
	return nil
}

// countAt adds one measurement to round's entry of perRound, inserting
// the entry in round order when it is new.
func (s *State) countAt(round int) {
	i, found := s.findRound(round)
	if found {
		s.perRound[i].n++
		return
	}
	s.perRound = slices.Insert(s.perRound, i, roundCount{round: round, n: 1})
}

// findRound returns the position of round's entry in perRound, or where
// it would be inserted, and whether it is present.
func (s *State) findRound(round int) (int, bool) {
	return slices.BinarySearchFunc(s.perRound, round, func(rc roundCount, k int) int {
		return cmp.Compare(rc.round, k)
	})
}

// ReceivedAt returns the number of measurements recorded during round k.
func (s *State) ReceivedAt(round int) int {
	if i, found := s.findRound(round); found {
		return s.perRound[i].n
	}
	return 0
}

// ReceivedBy returns the cumulative number of measurements recorded in
// rounds 1..k. At or past the last round with a measurement — every
// per-round stats call of a campaign — that is all of them.
func (s *State) ReceivedBy(round int) int {
	if last := len(s.perRound) - 1; last < 0 || round >= s.perRound[last].round {
		return s.received
	}
	total := 0
	for _, rc := range s.perRound {
		if rc.round > round {
			break
		}
		total += rc.n
	}
	return total
}

// RewardPaid returns the total reward paid for this task's measurements.
func (s *State) RewardPaid() float64 { return s.rewardPaid }

// CompletedRound returns the round at which the task completed, or 0.
func (s *State) CompletedRound() int { return s.completedRound }

// FirstRound returns the round of the first measurement, or 0 if none.
func (s *State) FirstRound() int { return s.firstRound }

// Covered reports whether the task has received at least one measurement,
// the paper's coverage criterion.
func (s *State) Covered() bool { return s.received > 0 }
