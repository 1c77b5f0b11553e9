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
	// contributors holds one entry per contributing user, in ascending
	// user order, found by binary search: a task may require many
	// measurements. userBits has bit user&63 set for each of them, so a
	// clear bit settles Contributed without the search: problem assembly
	// asks it for every task within a user's reach, and mostly of tasks
	// the user has not measured.
	contributors []contribution
	userBits     uint64
	// rewardPaid is the total reward paid out for this task so far.
	rewardPaid float64
	// completedRound is the round at which the task reached Required
	// measurements, or 0 if not yet complete.
	completedRound int
}

// NewState returns fresh mutable state for the task.
func NewState(t Task) (*State, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &State{Task: t}, nil
}

// contribution is one user's measurement and the round it was made in.
type contribution struct {
	user, round int
}

// Received returns the number of measurements received so far (pi_i).
func (s *State) Received() int { return s.received }

// Complete reports whether the task has all required measurements.
func (s *State) Complete() bool { return s.received >= s.Required }

// OpenAt reports whether the task accepts measurements at round k: it is
// not complete and its deadline has not passed. Open tasks are the ones the
// platform publishes each round.
func (s *State) OpenAt(round int) bool {
	return !s.Complete() && round >= 1 && round <= s.Deadline
}

// Contributed reports whether the given user has already contributed a
// measurement to this task.
func (s *State) Contributed(user int) bool {
	if s.userBits&userBit(user) == 0 {
		return false
	}
	_, found := s.findUser(user)
	return found
}

// userBit is user's bit in State.userBits.
func userBit(user int) uint64 { return 1 << (uint(user) & 63) }

// findUser returns the position of user's entry in contributors, or
// where it would be inserted, and whether it is present. It is
// slices.BinarySearchFunc written out: Contributed runs for every
// reachable task of every user turn, and the generic search's comparison
// call costs it two to three times as much on a few contributors.
func (s *State) findUser(user int) (int, bool) {
	cs := s.contributors
	lo, hi := 0, len(cs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if cs[h].user < user {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(cs) && cs[lo].user == user
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
	i, found := s.findUser(user)
	if found {
		return fmt.Errorf("%w: task %d user %d", ErrAlreadyContributed, s.ID, user)
	}
	s.contributors = slices.Insert(s.contributors, i, contribution{user: user, round: round})
	s.userBits |= userBit(user)
	s.received++
	s.rewardPaid += reward
	if s.received >= s.Required {
		s.completedRound = round
	}
	return nil
}

// RewardPaid returns the total reward paid for this task's measurements.
func (s *State) RewardPaid() float64 { return s.rewardPaid }

// CompletedRound returns the round at which the task completed, or 0.
func (s *State) CompletedRound() int { return s.completedRound }

// Covered reports whether the task has received at least one measurement,
// the paper's coverage criterion.
func (s *State) Covered() bool { return s.received > 0 }
