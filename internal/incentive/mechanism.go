// Package incentive implements the reward mechanisms compared in the paper
// and its competitors from the surrounding literature: the proposed
// demand-based dynamic ("on-demand") mechanism, the fixed mechanism, the
// steered crowdsensing mechanism of Kawajiri et al. (UbiComp 2014), a
// budget-limited truthful reverse auction, and an IncentMe-style mechanism
// that prices against predicted user mobility — plus configuration presets
// for the paper's ablations.
//
// A Mechanism is consulted by the platform once per sensing round, before
// task publication, and returns the per-measurement reward of every open
// task for that round. Every mechanism receives the same RoundInput — the
// task views plus the round's user locations, budget, bid cost, mobility
// forecast and seeded stream — and rejects a missing input it uses with
// an error that names it. What a mechanism derives from its inputs (the
// auction's bids) it derives itself, so only that mechanism pays for it.
package incentive

import (
	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// TaskView is the platform's per-task observation handed to a mechanism at
// the start of a round: everything the paper's reward rules depend on.
type TaskView struct {
	// ID identifies the task.
	ID task.ID `json:"id"`
	// Location is the task's location (used by location-aware mechanisms).
	Location geo.Point `json:"location"`
	// Deadline is the task's deadline round tau_i.
	Deadline int `json:"deadline"`
	// Required is the number of measurements the task needs (phi_i).
	Required int `json:"required"`
	// Received is the number of measurements received so far (pi_i).
	Received int `json:"received"`
	// Neighbors is the number of mobile users within the neighbor radius R
	// of the task at the start of the round.
	Neighbors int `json:"neighbors"`
}

// Progress returns the completing progress pi/phi, capped at 1.
func (v TaskView) Progress() float64 {
	if v.Required <= 0 {
		return 1
	}
	p := float64(v.Received) / float64(v.Required)
	if p > 1 {
		p = 1
	}
	return p
}

// Bid is one worker's claimed cost for participating in the round. Worker
// is the worker's index into the round's user-location slice (a stable,
// deterministic identifier within the round); Cost is the claimed cost in
// the same currency as rewards.
type Bid struct {
	// Worker indexes the round's user-location slice.
	Worker int
	// Cost is the worker's claimed participation cost.
	Cost float64
}

// ForecastProvider predicts how many users will neighbor a task as rounds
// pass. Implementations must be deterministic: the same (current, horizon)
// arguments must yield the same value every call, or byte-identity across
// worker counts breaks.
type ForecastProvider interface {
	// Name returns a short identifier for experiment output.
	Name() string
	// ExpectedNeighbors returns the expected number of users within the
	// neighbor radius of a task horizon rounds from now, given its
	// current neighbor count.
	ExpectedNeighbors(current int, horizon int) float64
}

// RoundInput carries everything a mechanism may consume for one round.
// The engine fills every field each round; a mechanism reads the ones it
// uses and rejects a missing one (a nil forecast or stream, a budget or
// bid cost that is not positive) with an error naming it. The struct and
// its slices are caller-owned scratch reused between rounds; mechanisms
// must not retain them after the call returns.
type RoundInput struct {
	// Round is the current sensing round k (1-based).
	Round int
	// Views holds one entry per open task, in board order.
	Views []TaskView
	// Users holds the round's user locations in user order; a Bid's
	// Worker indexes it.
	Users []geo.Point
	// Budget is the campaign budget B.
	Budget float64
	// BidCostPerMeter converts a user's travel estimate into the claimed
	// cost of its bid.
	BidCostPerMeter float64
	// Mobility forecasts future neighbor counts.
	Mobility ForecastProvider
	// RNG is the mechanism's seeded stream. Draws consume the stream, so
	// the call order over views is part of the byte-identity contract.
	RNG *stats.RNG
}

// Mechanism prices sensing tasks round by round.
//
// Implementations may keep per-task state across rounds (the fixed
// mechanism memoizes its initial random draw) and per-call scratch, so a
// Mechanism value must not be shared between concurrently running engines.
//
// RewardsInto must write an entry into out for every view it prices; a
// mechanism may deliberately price nothing (an auction whose budget
// affords no worker) by leaving out untouched.
type Mechanism interface {
	// Name returns a short identifier used in experiment output
	// ("on-demand", "fixed", "steered", "auction", "incentme").
	Name() string
	// RewardsInto writes the per-measurement reward of each task for the
	// round described by in into out, which the caller has cleared; it
	// must not delete foreign keys or retain out. A steady-state call
	// allocates nothing.
	RewardsInto(in *RoundInput, out map[task.ID]float64) error
}
