// Package agent models the mobile users of the crowdsensing system: their
// location, walking speed, per-round time budget, movement cost, and the
// rational-behavior bookkeeping (accumulated profit, tasks already
// performed) that drives distributed task selection in the WST mode.
package agent

import (
	"fmt"

	"paydemand/internal/geo"
	"paydemand/internal/task"
)

// Defaults from the paper's evaluation (Section VI).
const (
	// DefaultSpeed is the walking speed in meters per second.
	DefaultSpeed = 2.0
	// DefaultCostPerMeter is the movement cost in dollars per meter.
	DefaultCostPerMeter = 0.002
	// DefaultTimeBudget is the per-round time budget in seconds. The paper
	// never states B^k_ui; 600 s (1200 m of walking at 2 m/s) reproduces
	// the paper's round-1 measurement volumes (see DESIGN.md section 4).
	DefaultTimeBudget = 600.0
)

// User is one mobile user. Users are mutable simulation entities: their
// location and profit evolve round by round. User is not safe for
// concurrent use.
type User struct {
	// ID identifies the user; unique within a simulation.
	ID int
	// Location is the user's current position.
	Location geo.Point
	// Speed is the user's travel speed in m/s.
	Speed float64
	// TimeBudget is the per-round time budget B^k_ui in seconds.
	TimeBudget float64
	// CostPerMeter is the movement cost in $/m.
	CostPerMeter float64

	profit float64
	done   map[task.ID]bool
}

// New constructs a user with the given id and location and paper-default
// speed, time budget and movement cost.
func New(id int, loc geo.Point) *User {
	return &User{
		ID:           id,
		Location:     loc,
		Speed:        DefaultSpeed,
		TimeBudget:   DefaultTimeBudget,
		CostPerMeter: DefaultCostPerMeter,
	}
}

// Validate checks the user's parameters.
func (u *User) Validate() error {
	if u.Speed <= 0 {
		return fmt.Errorf("agent %d: speed %v, want > 0", u.ID, u.Speed)
	}
	if u.TimeBudget < 0 {
		return fmt.Errorf("agent %d: time budget %v, want >= 0", u.ID, u.TimeBudget)
	}
	if u.CostPerMeter < 0 {
		return fmt.Errorf("agent %d: cost per meter %v, want >= 0", u.ID, u.CostPerMeter)
	}
	if !u.Location.IsFinite() {
		return fmt.Errorf("agent %d: non-finite location %v", u.ID, u.Location)
	}
	return nil
}

// ActorID returns the user's ID; it satisfies the round engine's Actor
// interface (engine.Actor) without the engine knowing about agents.
func (u *User) ActorID() int { return u.ID }

// MaxTravelDistance returns the farthest total distance the user can walk
// in one round: Speed * TimeBudget. The paper's time-budget constraint
// Gamma(T) <= B is equivalent to a distance constraint at constant speed.
func (u *User) MaxTravelDistance() float64 { return u.Speed * u.TimeBudget }

// TravelTime returns the time in seconds to walk dist meters.
func (u *User) TravelTime(dist float64) float64 { return dist / u.Speed }

// TravelCost returns the movement cost in dollars to walk dist meters.
func (u *User) TravelCost(dist float64) float64 { return dist * u.CostPerMeter }

// Profit returns the user's accumulated profit over the simulation.
func (u *User) Profit() float64 { return u.profit }

// AddProfit adds the profit earned in a round (may be negative in
// principle, though rational users never accept negative-profit plans).
func (u *User) AddProfit(p float64) { u.profit += p }

// HasDone reports whether the user has already contributed to the task.
// The paper allows each user at most one measurement per task over the
// whole campaign.
func (u *User) HasDone(id task.ID) bool { return u.done[id] }

// MarkDone records that the user contributed to the task. The set is
// allocated on first use, so a user whose driver reads contributions off
// the board instead (the simulation does) allocates none.
func (u *User) MarkDone(id task.ID) {
	if u.done == nil {
		u.done = make(map[task.ID]bool)
	}
	u.done[id] = true
}

// DoneCount returns how many distinct tasks the user has contributed to.
func (u *User) DoneCount() int { return len(u.done) }

// MoveTo relocates the user (end-of-round position update).
func (u *User) MoveTo(p geo.Point) { u.Location = p }

// Locations extracts the current locations of a user slice, in order. The
// incentive mechanism indexes these to count neighboring users per task.
func Locations(users []*User) []geo.Point {
	return LocationsInto(make([]geo.Point, 0, len(users)), users)
}

// LocationsInto is Locations into a caller-provided buffer: it appends the
// locations to buf[:0] and returns the (possibly re-grown) slice. The
// simulation calls it every round, so reusing one buffer keeps the round
// loop allocation-free.
func LocationsInto(buf []geo.Point, users []*User) []geo.Point {
	buf = buf[:0]
	for _, u := range users {
		buf = append(buf, u.Location)
	}
	return buf
}
