package mobility

import (
	"fmt"
	"math"

	"paydemand/internal/geo"
)

// Base per-round diffusion rates: the fraction of a task's current
// neighborhood a model replaces each round before the uncertainty knob is
// applied. Stationary users never diffuse; random-waypoint walks cross the
// area aggressively; Levy walks mix somewhat slower (most flights are
// short, a few are long).
const (
	stationaryDiffusion     = 0.0
	randomWaypointDiffusion = 0.35
	levyWalkDiffusion       = 0.25
	defaultDiffusion        = 0.3
)

// baseDiffusion maps a model to its per-round diffusion rate. Unknown
// model implementations get a middle-of-the-road default.
func baseDiffusion(m Model) float64 {
	switch m.(type) {
	case Stationary, *Stationary:
		return stationaryDiffusion
	case *RandomWaypoint:
		return randomWaypointDiffusion
	case *LevyWalk:
		return levyWalkDiffusion
	default:
		return defaultDiffusion
	}
}

// Forecast predicts a task's future neighbor count under a mobility model:
// a closed-form mean-field mixture between the current observation and the
// uniform-equilibrium count, used by mobility-aware mechanisms (through
// incentive.RoundInput.Mobility).
//
// Each round, a fraction u of the neighborhood is assumed to diffuse and
// be replaced by population drawn uniformly from the area, so after h
// rounds
//
//	E[N(h)] = N * (1-u)^h + Neq * (1 - (1-u)^h)
//
// where N is the current count, Neq = min(Users, Users * pi*R^2 / Area) is
// the equilibrium neighbor count of a uniformly spread population, and
//
//	u = 1 - (1 - base) * (1 - Uncertainty)
//
// combines the model's base diffusion rate with the operator's uncertainty
// knob: Uncertainty = 0 trusts the model's own mixing; Uncertainty = 1
// collapses the forecast to equilibrium after one round. The forecast is
// pure arithmetic over its constructor inputs — deterministic by
// construction, as the ForecastProvider contract requires.
type Forecast struct {
	model       Model
	uncertainty float64
	mixing      float64 // u, precomputed
	equilibrium float64 // Neq, precomputed
}

// NewForecast builds a forecast for a population of users members moving
// under model inside area, with radius the neighbor radius R and
// uncertainty in [0, 1] the operator's extra mixing on top of the model's
// own.
func NewForecast(model Model, uncertainty float64, area geo.Rect, radius float64, users int) (*Forecast, error) {
	if model == nil {
		return nil, fmt.Errorf("mobility: forecast needs a model")
	}
	if uncertainty < 0 || uncertainty > 1 || math.IsNaN(uncertainty) {
		return nil, fmt.Errorf("mobility: forecast uncertainty %v, want in [0, 1]", uncertainty)
	}
	if !area.Valid() || area.Area() == 0 {
		return nil, fmt.Errorf("mobility: forecast over invalid area %v", area)
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("mobility: forecast radius %v, want finite >= 0", radius)
	}
	if users < 0 {
		return nil, fmt.Errorf("mobility: forecast population %d, want >= 0", users)
	}
	eq := float64(users) * math.Pi * radius * radius / area.Area()
	if eq > float64(users) {
		eq = float64(users)
	}
	return &Forecast{
		model:       model,
		uncertainty: uncertainty,
		mixing:      1 - (1-baseDiffusion(model))*(1-uncertainty),
		equilibrium: eq,
	}, nil
}

// Name implements incentive.ForecastProvider.
func (f *Forecast) Name() string { return f.model.Name() + "-forecast" }

// Uncertainty returns the operator's uncertainty knob.
func (f *Forecast) Uncertainty() float64 { return f.uncertainty }

// ExpectedNeighbors implements incentive.ForecastProvider: the mean-field
// mixture after horizon rounds. Negative horizons are treated as 0 (the
// current observation).
func (f *Forecast) ExpectedNeighbors(current int, horizon int) float64 {
	if horizon < 0 {
		horizon = 0
	}
	keep := math.Pow(1-f.mixing, float64(horizon))
	return float64(current)*keep + f.equilibrium*(1-keep)
}
