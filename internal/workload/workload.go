// Package workload generates simulation scenarios in the paper's
// evaluation setting (Section VI): tasks and users placed uniformly at
// random over the sensing area (a 3000 m x 3000 m square by default),
// deadlines drawn from U{5..15}, and the same measurement requirement phi
// for every task.
package workload

import (
	"errors"
	"fmt"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// Paper defaults (Section VI).
const (
	DefaultAreaSide    = 3000.0
	DefaultNumTasks    = 20
	DefaultNumUsers    = 100
	DefaultRequired    = 20
	DefaultDeadlineMin = 5
	DefaultDeadlineMax = 15
)

// Config parameterizes scenario generation.
type Config struct {
	// Area is the sensing area; zero value means Square(3000).
	Area geo.Rect `json:"area"`
	// NumTasks is the number of sensing tasks.
	NumTasks int `json:"num_tasks"`
	// NumUsers is the number of mobile users.
	NumUsers int `json:"num_users"`
	// Required is the measurements each task needs (phi). Zero means 20.
	Required int `json:"required"`
}

// withDefaults fills zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if !c.Area.Valid() || c.Area.Area() == 0 {
		c.Area = geo.Square(DefaultAreaSide)
	}
	if c.NumTasks == 0 {
		c.NumTasks = DefaultNumTasks
	}
	if c.NumUsers == 0 {
		c.NumUsers = DefaultNumUsers
	}
	if c.Required == 0 {
		c.Required = DefaultRequired
	}
	return c
}

// Validate checks a defaulted configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.NumTasks < 0 || c.NumUsers < 0 {
		return errors.New("workload: negative task or user count")
	}
	if c.Required < 1 {
		return fmt.Errorf("workload: required measurements %d, want >= 1", c.Required)
	}
	return nil
}

// Scenario is one generated instance: the area, task specifications, and
// initial user locations.
type Scenario struct {
	Area          geo.Rect    `json:"area"`
	Tasks         []task.Task `json:"tasks"`
	UserLocations []geo.Point `json:"user_locations"`
}

// Generate draws a scenario from the configuration using rng: task
// locations, then per task its deadline, then user locations. Task IDs
// are 1-based and sequential.
func Generate(rng *stats.RNG, cfg Config) (Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return Scenario{}, err
	}
	cfg = cfg.withDefaults()
	sc := Scenario{Area: cfg.Area}

	taskLocs := placeUniform(rng, cfg.Area, cfg.NumTasks)
	sc.Tasks = make([]task.Task, cfg.NumTasks)
	for i := range sc.Tasks {
		sc.Tasks[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: taskLocs[i],
			Deadline: rng.IntBetween(DefaultDeadlineMin, DefaultDeadlineMax),
			Required: cfg.Required,
		}
	}
	sc.UserLocations = placeUniform(rng, cfg.Area, cfg.NumUsers)
	return sc, nil
}

func placeUniform(rng *stats.RNG, area geo.Rect, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(
			rng.Uniform(area.Min.X, area.Max.X),
			rng.Uniform(area.Min.Y, area.Max.Y),
		)
	}
	return pts
}
