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
// task for that round. Mechanisms declare the inputs they need through a
// Capabilities bitmask; the round engine assembles exactly the requested
// inputs into a RoundInput, so a mechanism that only needs task views
// never pays for bid construction or mobility forecasting.
package incentive

import (
	"strings"

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

// Capabilities is a bitmask of optional RoundInput fields a mechanism
// consumes. The round engine populates exactly the declared fields, and
// configuration validation rejects setups that cannot supply a declared
// capability, so a missing input is a construction-time error rather than
// a mid-campaign nil dereference.
type Capabilities uint32

const (
	// CapBids requests per-worker claimed costs (RoundInput.Bids).
	CapBids Capabilities = 1 << iota
	// CapBudget requests the campaign budget (RoundInput.Budget).
	CapBudget
	// CapMobility requests a mobility forecast (RoundInput.Mobility).
	CapMobility
	// CapRNG requests the shared seeded stream (RoundInput.RNG).
	CapRNG
)

// capabilityNames lists the bits in declaration order for String.
var capabilityNames = []struct {
	bit  Capabilities
	name string
}{
	{CapBids, "bids"},
	{CapBudget, "budget"},
	{CapMobility, "mobility"},
	{CapRNG, "rng"},
}

// Has reports whether every bit of want is set.
func (c Capabilities) Has(want Capabilities) bool { return c&want == want }

// String renders the set bits as a +-joined list ("bids+budget"), or
// "none" for the empty mask.
func (c Capabilities) String() string {
	if c == 0 {
		return "none"
	}
	var b strings.Builder
	for _, n := range capabilityNames {
		if !c.Has(n.bit) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(n.name)
	}
	return b.String()
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
// Round and Views are always populated; the capability fields are set only
// when the mechanism's Requires() mask asks for them, and are zero/nil
// otherwise. The struct and its slices are caller-owned scratch reused
// between rounds; mechanisms must not retain them after the call returns.
type RoundInput struct {
	// Round is the current sensing round k (1-based).
	Round int
	// Views holds one entry per open task, in board order.
	Views []TaskView
	// Bids holds per-worker claimed costs, one per user, in user order
	// (CapBids).
	Bids []Bid
	// Budget is the campaign budget B (CapBudget).
	Budget float64
	// Mobility forecasts future neighbor counts (CapMobility).
	Mobility ForecastProvider
	// RNG is the mechanism's seeded stream (CapRNG). Draws consume the
	// stream, so the call order over views is part of the byte-identity
	// contract.
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
// affords no worker) by leaving out untouched. Rewards is the allocating
// convenience form of RewardsInto.
type Mechanism interface {
	// Name returns a short identifier used in experiment output
	// ("on-demand", "fixed", "steered", "auction", "incentme").
	Name() string
	// Requires declares which optional RoundInput fields the mechanism
	// consumes. The engine populates exactly these.
	Requires() Capabilities
	// Rewards returns the per-measurement reward of each task for the
	// round described by in. The returned map is freshly allocated and
	// owned by the caller.
	Rewards(in *RoundInput) (map[task.ID]float64, error)
	// RewardsInto writes the per-measurement rewards into out, which the
	// caller has cleared; it must not delete foreign keys or retain out.
	// This is the hot-path form: a steady-state call allocates nothing.
	RewardsInto(in *RoundInput, out map[task.ID]float64) error
}

// allocRewards adapts RewardsInto into the allocating Rewards form; every
// mechanism's Rewards is this one-liner.
func allocRewards(m Mechanism, in *RoundInput) (map[task.ID]float64, error) {
	out := make(map[task.ID]float64, len(in.Views))
	if err := m.RewardsInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}
