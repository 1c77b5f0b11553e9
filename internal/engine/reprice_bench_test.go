package engine

import (
	"fmt"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// benchWorld is one synthetic repricing workload: a board of open tasks
// and a user population, both uniform over the area.
type benchWorld struct {
	board  *task.Board
	mech   incentive.Mechanism
	scheme incentive.RewardScheme
	budget float64
	area   geo.Rect
	users  []geo.Point
}

func newBenchWorld(b testing.TB, users, tasks int) benchWorld {
	b.Helper()
	area := geo.Square(3000)
	rng := stats.NewRNG(int64(1000*users + tasks))
	ts := make([]task.Task, tasks)
	for i := range ts {
		ts[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)),
			Deadline: 50,
			Required: 20,
		}
	}
	board, err := task.NewBoard(ts)
	if err != nil {
		b.Fatal(err)
	}
	// Budget scales with the workload so every grid point can fund its
	// level-1 rewards (Eq. 8 requires r0 > 0).
	budget := 10 * float64(board.TotalRequired())
	scheme, err := incentive.SchemeFromBudget(budget, board.TotalRequired(), 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		b.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]geo.Point, users)
	for i := range locs {
		locs[i] = geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
	}
	return benchWorld{board: board, mech: mech, scheme: scheme, budget: budget, area: area, users: locs}
}

// benchEngine builds a long-lived engine priced by the named mechanism,
// with the inputs it uses wired into the config.
func benchEngine(b testing.TB, w benchWorld, kind string) *Engine {
	b.Helper()
	cfg := Config{Board: w.board, Area: w.area, NeighborRadius: 500}
	var err error
	switch kind {
	case "on-demand":
		cfg.Mechanism = w.mech
	case "fixed":
		cfg.Mechanism, err = incentive.NewFixed(w.scheme)
		cfg.RNG = stats.NewRNG(1)
	case "auction":
		cfg.Mechanism = incentive.NewAuction()
		cfg.Budget = w.budget
		cfg.BidCostPerMeter = 0.002
	case "incentme":
		cfg.Mechanism, err = incentive.NewIncentMe(w.scheme)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Forecast, err = mobility.NewForecast(mobility.Stationary{}, 0.2, w.area, 500, len(w.users))
	default:
		b.Fatalf("unknown bench mechanism %q", kind)
	}
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkReprice measures one full round repricing — open snapshot,
// neighbor counting, mechanism pricing, location validation — over a
// mechanism x users x tasks grid, comparing the engine's recycled
// scratch against the pre-engine approach of rebuilding every structure
// per round.
//
//   - engine/<mechanism>: BeginRound + Reprice on one long-lived Engine,
//     priced by the named mechanism with the inputs it uses wired in.
//     Steady state allocates nothing (the grid, views, bids and rewards
//     are grow-only scratch; see TestRepriceSteadyStateAllocs).
//   - rebuild: what the HTTP platform did before the engine existed —
//     a fresh grid index and view slice every round, priced on-demand.
func BenchmarkReprice(b *testing.B) {
	cells := []struct{ users, tasks int }{
		{50, 20}, {50, 100}, {200, 20}, {200, 100}, {1000, 20}, {1000, 100},
		{2000, 1000}, // the benchmark's city-sim size, where neighbor counting leads
	}
	for _, c := range cells {
		users, tasks := c.users, c.tasks
		name := fmt.Sprintf("users=%d/tasks=%d", users, tasks)
		for _, kind := range []string{"on-demand", "fixed", "auction", "incentme"} {
			b.Run("engine/"+kind+"/"+name, func(b *testing.B) {
				w := newBenchWorld(b, users, tasks)
				eng := benchEngine(b, w, kind)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.BeginRound(1)
					if err := eng.Reprice(w.users); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run("rebuild/"+name, func(b *testing.B) {
			w := newBenchWorld(b, users, tasks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				open := w.board.OpenAt(1)
				grid, err := geo.NewGridIndex(w.area, 500, w.users)
				if err != nil {
					b.Fatal(err)
				}
				views := make([]incentive.TaskView, len(open))
				for j, st := range open {
					views[j] = incentive.TaskView{
						ID:        st.ID,
						Location:  st.Location,
						Deadline:  st.Deadline,
						Required:  st.Required,
						Received:  st.Received(),
						Neighbors: grid.CountWithin(st.Location, 500),
					}
				}
				rewards := make(map[task.ID]float64, len(views))
				if err := w.mech.RewardsInto(&incentive.RoundInput{Round: 1, Views: views}, rewards); err != nil {
					b.Fatal(err)
				}
				if len(rewards) == 0 {
					b.Fatal("no rewards")
				}
			}
		})
	}
}

// BenchmarkProblemInto measures candidate assembly for one user on a
// city-sized board (1000 open tasks over 3 km, a 50 m reach), where the
// reach bound rejects nearly every task: the per-user cost is a walk of
// the reach index's cells under the user's reach box and the axis test
// on the few tasks bucketed there.
func BenchmarkProblemInto(b *testing.B) {
	w := newBenchWorld(b, 2000, 1000)
	eng := benchEngine(b, w, "on-demand")
	eng.BeginRound(1)
	if err := eng.Reprice(w.users); err != nil {
		b.Fatal(err)
	}
	var who Actor = Worker(1)
	var buf []selection.Candidate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf = eng.ProblemInto(Spec{Start: w.users[i%len(w.users)], MaxDistance: 50, CostPerMeter: 0.002}, who, buf)
	}
}

// BenchmarkNeighborViews measures one NeighborViews call against the
// previous call's locations, with the given share of users moved to
// fresh uniform locations: the calls alternate between two location sets
// that differ in exactly that share. Below movedShare the counts are
// updated user by user; from it on every task is recounted. It runs at
// the benchmark's city size (2000 users, 1000 open tasks) and at the
// paper's (100 users, 20 tasks), both with R = 500 m in a 3 km square,
// so the cut-off is measured at both.
func BenchmarkNeighborViews(b *testing.B) {
	for _, size := range []struct {
		name         string
		users, tasks int
	}{{"city", 2000, 1000}, {"paper", 100, 20}} {
		for _, pct := range []int{0, 1, 6, 10, 15, 25, 40, 50, 100} {
			b.Run(fmt.Sprintf("%s/moved=%d%%", size.name, pct), func(b *testing.B) {
				w := newBenchWorld(b, size.users, size.tasks)
				eng := benchEngine(b, w, "on-demand")
				eng.BeginRound(1)
				rng := stats.NewRNG(int64(pct))
				next := append([]geo.Point(nil), w.users...)
				for i := 0; i < len(next)*pct/100; i++ {
					next[i] = geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
				}
				sets := [2][]geo.Point{w.users, next}
				if _, err := eng.NeighborViews(sets[1]); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.NeighborViews(sets[i%2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
