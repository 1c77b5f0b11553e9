package engine

import (
	"runtime"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// TestRepriceSteadyStateAllocsAllMechanisms extends the zero-allocation
// contract from the stub to every real mechanism: with the reward map
// engine-owned scratch, every input handed over in the recycled
// RoundInput and the auction's bids built into its own scratch, a
// steady-state BeginRound+Reprice allocates nothing regardless of which
// mechanism is pricing. The steady state cycles through user moves below and above
// movedShare, so both the user-by-user count update and the full
// recount are held to it.
func TestRepriceSteadyStateAllocsAllMechanisms(t *testing.T) {
	area := geo.Square(1000)
	tasks := make([]task.Task, 12)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(float64(80*(i+1)%1000), float64(170*(i+1)%1000)),
			Deadline: 30,
			Required: 10,
		}
	}
	scheme, err := incentive.SchemeFromBudget(1000, 12*10, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	forecast, err := mobility.NewForecast(&mobility.RandomWaypoint{}, 0.2, area, 150, 60)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]geo.Point, 60)
	rng := stats.NewRNG(5)
	for i := range locs {
		locs[i] = geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	// Each step of the cycle locs -> few -> locs -> many -> locs moves one
	// user or half of them, below and above the cut-off.
	few := append([]geo.Point(nil), locs...)
	few[0] = geo.Pt(500, 500)
	many := append([]geo.Point(nil), locs...)
	for i := range many[:len(many)/2] {
		many[i] = geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	if cut := movedShare * float64(len(locs)); !(1 < cut && cut <= float64(len(locs)/2)) {
		t.Fatalf("moves of 1 and %d of %d users do not straddle movedShare %v", len(locs)/2, len(locs), movedShare)
	}
	cycle := [][]geo.Point{few, locs, many, locs}

	mechs := []struct {
		name  string
		build func(t *testing.T) (incentive.Mechanism, Config)
	}{
		{"on-demand", func(t *testing.T) (incentive.Mechanism, Config) {
			m, err := incentive.NewPaperOnDemand(scheme)
			if err != nil {
				t.Fatal(err)
			}
			return m, Config{}
		}},
		{"fixed", func(t *testing.T) (incentive.Mechanism, Config) {
			m, err := incentive.NewFixed(scheme)
			if err != nil {
				t.Fatal(err)
			}
			return m, Config{RNG: stats.NewRNG(9)}
		}},
		{"steered", func(t *testing.T) (incentive.Mechanism, Config) {
			return incentive.NewSteered(), Config{}
		}},
		{"auction", func(t *testing.T) (incentive.Mechanism, Config) {
			return incentive.NewAuction(), Config{Budget: 1000, BidCostPerMeter: 0.002}
		}},
		{"incentme", func(t *testing.T) (incentive.Mechanism, Config) {
			m, err := incentive.NewIncentMe(scheme)
			if err != nil {
				t.Fatal(err)
			}
			return m, Config{Forecast: forecast}
		}},
	}
	for _, tc := range mechs {
		t.Run(tc.name, func(t *testing.T) {
			mech, cfg := tc.build(t)
			cfg.Board = newTestBoard(t, tasks)
			cfg.Mechanism = mech
			cfg.Area = area
			cfg.NeighborRadius = 150
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.BeginRound(1)
			if err := e.Reprice(locs); err != nil {
				t.Fatal(err)
			}
			if len(e.Rewards()) == 0 {
				t.Fatal("warm-up reprice published nothing")
			}
			allocs := testing.AllocsPerRun(100, func() {
				for _, users := range cycle {
					e.BeginRound(1)
					if err := e.Reprice(users); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs > 0 {
				t.Errorf("%s: steady-state reprice allocates %v objects/op, want 0", tc.name, allocs)
			}
		})
	}
}

func newTestBoard(t *testing.T, tasks []task.Task) *task.Board {
	t.Helper()
	b, err := task.NewBoard(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFirstRepriceAllocsCitySize bounds what a fresh engine allocates for
// its first BeginRound+Reprice at city size (1000 tasks, 2000 users, R =
// 500 m, on-demand pricing): everything it builds is linear in tasks and
// users, about 0.4 MiB. A structure quadratic in the board — a task-pair
// distance table alone is 8 MB here — fails the 1 MiB bound.
func TestFirstRepriceAllocsCitySize(t *testing.T) {
	w := newBenchWorld(t, 2000, 1000)
	e := benchEngine(t, w, "on-demand")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.BeginRound(1)
	err := e.Reprice(w.users)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1 << 20
	got := after.TotalAlloc - before.TotalAlloc
	if got >= limit {
		t.Errorf("first reprice allocated %d KiB, want < %d KiB", got>>10, limit>>10)
	}
	t.Logf("first reprice allocated %d KiB", got>>10)
}
