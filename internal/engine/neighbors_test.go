package engine

import (
	"fmt"
	"math"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// neighborOracle drives NeighborViews over a caller-edited user
// population and checks every view against a brute-force recount.
type neighborOracle struct {
	t    testing.TB
	e    *Engine
	r    float64
	locs []geo.Point
}

func newNeighborOracle(t testing.TB, board *task.Board, r float64, locs []geo.Point) *neighborOracle {
	t.Helper()
	e, err := New(Config{Board: board, Area: geo.Square(1000), NeighborRadius: r})
	if err != nil {
		t.Fatal(err)
	}
	return &neighborOracle{t: t, e: e, r: r, locs: locs}
}

// check calls NeighborViews over the current locations, requires one
// view per open task in snapshot order whose Neighbors equals
// geo.CountWithinBrute over the same locations, and reports whether the
// call recounted every task: only a recount rebuilds the user grid,
// which check empties first.
func (o *neighborOracle) check(step string) (recounted bool) {
	o.t.Helper()
	o.e.grid = geo.GridIndex{}
	views, err := o.e.NeighborViews(o.locs)
	if err != nil {
		o.t.Fatalf("%s: %v", step, err)
	}
	open := o.e.Open()
	if len(views) != len(open) {
		o.t.Fatalf("%s: %d views for %d open tasks", step, len(views), len(open))
	}
	for i, v := range views {
		if v.ID != open[i].ID {
			o.t.Fatalf("%s: view %d is task %d, snapshot has %d", step, i, v.ID, open[i].ID)
		}
		if want := geo.CountWithinBrute(o.locs, v.Location, o.r); v.Neighbors != want {
			o.t.Fatalf("%s: task %d at %v counts %d neighbors, recount %d", step, v.ID, v.Location, v.Neighbors, want)
		}
	}
	return o.e.grid.Len() > 0
}

// expect is check plus the path the call must take.
func (o *neighborOracle) expect(step string, recount bool) {
	o.t.Helper()
	if got := o.check(step); got != recount {
		o.t.Fatalf("%s: recounted = %v, want %v", step, got, recount)
	}
}

// TestNeighborViewsIncrementalMatchesRecount pins the incremental
// neighbor counts to a brute-force recount on every call: random move
// sequences with no, few and many movers as tasks close, users on and
// one ulp either side of the radius, non-finite locations, a changing
// population, repeated and backward rounds, and board swaps and clears.
// Each directed case also pins which path the call takes.
func TestNeighborViewsIncrementalMatchesRecount(t *testing.T) {
	const r = 150.0
	rng := stats.NewRNG(16)
	uniform := func(n int, lo, hi float64) []geo.Point {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Uniform(lo, hi), rng.Uniform(lo, hi))
		}
		return pts
	}
	boardOf := func(locs []geo.Point, deadline func(i int) int) *task.Board {
		tasks := make([]task.Task, len(locs))
		for i, loc := range locs {
			tasks[i] = task.Task{ID: task.ID(i + 1), Location: loc, Deadline: deadline(i), Required: 1 + i%3}
		}
		return newTestBoard(t, tasks)
	}

	t.Run("random-walk", func(t *testing.T) {
		board := boardOf(uniform(80, 0, 1000), func(i int) int { return 1 + i%8 })
		// Some users start outside the area, where the grid clamps them.
		o := newNeighborOracle(t, board, r, uniform(200, -60, 1060))
		round := 1
		o.e.BeginRound(round)
		o.expect("first count", true)
		for step := 0; step < 300; step++ {
			var movers int
			switch rng.Intn(3) {
			case 1:
				movers = 1 + rng.Intn(20) // below the cut-off of 25
			case 2:
				movers = 25 + rng.Intn(176)
			}
			for _, i := range rng.Perm(len(o.locs))[:movers] {
				o.locs[i] = geo.Pt(rng.Uniform(-60, 1060), rng.Uniform(-60, 1060))
			}
			if open := o.e.Open(); len(open) > 0 && rng.Intn(2) == 0 {
				// A repeat contributor's commit fails harmlessly.
				_, _, _ = o.e.Commit(rng.Intn(1000), open[rng.Intn(len(open))].ID)
			}
			if step%40 == 39 {
				round++
			}
			o.e.BeginRound(round)
			recounted := o.check(fmt.Sprintf("step %d, round %d, %d moved", step, round, movers))
			if movers >= 25 && !recounted {
				t.Fatalf("step %d: %d of %d users moved without a recount", step, movers, len(o.locs))
			}
		}
	})

	// Two tasks keep the reach index up; 40 users put the cut-off at 5.
	center := geo.Pt(500, 500)
	pair := boardOf([]geo.Point{center, geo.Pt(200, 800)}, func(int) int { return 9 })
	parked := func() []geo.Point {
		locs := make([]geo.Point, 40)
		for i := range locs {
			locs[i] = geo.Pt(100+float64(i), 100)
		}
		return locs
	}

	t.Run("radius-boundary", func(t *testing.T) {
		o := newNeighborOracle(t, pair, r, parked())
		o.e.BeginRound(1)
		o.expect("parked", true)
		// 90-120-150 is exact in floats: Hypot hits R itself.
		for _, p := range []geo.Point{
			geo.Pt(center.X+r, center.Y), geo.Pt(center.X, center.Y-r), geo.Pt(center.X-90, center.Y+120),
		} {
			for _, q := range []geo.Point{
				p,
				geo.Pt(math.Nextafter(p.X, math.Inf(-1)), p.Y), geo.Pt(math.Nextafter(p.X, math.Inf(1)), p.Y),
				geo.Pt(p.X, math.Nextafter(p.Y, math.Inf(-1))), geo.Pt(p.X, math.Nextafter(p.Y, math.Inf(1))),
			} {
				o.locs[0] = q
				o.expect(fmt.Sprintf("user 0 at %v", q), false)
				// One user leaves the disk edge as another arrives.
				o.locs[1], o.locs[0] = q, o.locs[1]
				o.expect(fmt.Sprintf("users 0 and 1 swap at %v", q), false)
			}
		}
	})

	t.Run("reach-cell-edges", func(t *testing.T) {
		// Six tasks spanning 1200 m give reach cells of side 400. Each of
		// the last four sits 0.05 m from a cell seam, and a user 149.99 m
		// away on the far side of the seam counts it, so a candidate box
		// that fell 0.06 m short of R on any side would miss it.
		tasks := []geo.Point{
			geo.Pt(0, 0), geo.Pt(1200, 1200),
			geo.Pt(399.95, 200), geo.Pt(200, 399.95), geo.Pt(400.05, 1000), geo.Pt(1000, 400.05),
		}
		o := newNeighborOracle(t, boardOf(tasks, func(int) int { return 9 }), r, parked())
		o.e.BeginRound(1)
		o.expect("parked", true)
		for _, p := range []geo.Point{
			geo.Pt(549.94, 200), geo.Pt(200, 549.94), geo.Pt(250.06, 1000), geo.Pt(1000, 250.06),
		} {
			o.locs[0] = p
			o.expect(fmt.Sprintf("user 0 at %v", p), false)
		}
	})

	t.Run("cut-off", func(t *testing.T) {
		o := newNeighborOracle(t, pair, r, parked())
		o.e.BeginRound(1)
		o.expect("parked", true)
		o.expect("nobody moved", false)
		for i := 0; i < 4; i++ {
			o.locs[i] = geo.Pt(center.X+float64(10*i), center.Y)
		}
		o.expect("4 of 40 moved", false)
		for i := 0; i < 5; i++ {
			o.locs[i] = geo.Pt(center.X, center.Y+float64(10*i+5))
		}
		o.expect("5 of 40 moved", true)
	})

	t.Run("non-finite", func(t *testing.T) {
		o := newNeighborOracle(t, pair, r, parked())
		o.e.BeginRound(1)
		o.expect("parked", true)
		for _, p := range []geo.Point{
			geo.Pt(math.NaN(), center.Y), geo.Pt(center.X, math.Inf(1)), geo.Pt(math.Inf(-1), math.NaN()),
		} {
			o.locs[0] = center
			o.expect("user 0 at the task", false)
			o.locs[0] = p
			o.expect(fmt.Sprintf("user 0 to %v", p), true)
			o.locs[0] = center
			o.expect(fmt.Sprintf("user 0 from %v", p), true)
		}
	})

	t.Run("population-change", func(t *testing.T) {
		o := newNeighborOracle(t, pair, r, parked())
		o.e.BeginRound(1)
		o.expect("parked", true)
		o.locs = append(o.locs, center)
		o.expect("a user joins at the task", true)
		o.expect("nobody moved", false)
		o.locs = o.locs[1:]
		o.expect("the first user leaves", true)
	})

	t.Run("rounds", func(t *testing.T) {
		// Task 1 expires after round 1; tasks 2 and 3 stay open.
		board := boardOf([]geo.Point{center, geo.Pt(200, 800), geo.Pt(800, 200)},
			func(i int) int { return []int{1, 9, 9}[i] })
		o := newNeighborOracle(t, board, r, parked())
		o.e.BeginRound(1)
		o.expect("round 1", true)
		o.e.BeginRound(2)
		o.expect("round 2", false)
		// A repeated round (a re-reprice within it) keeps the counts.
		o.locs[0] = center
		o.e.BeginRound(2)
		o.expect("round 2 again, user 0 at task 1", false)
		// Going back reopens task 1, which missed user 0's move.
		o.e.BeginRound(1)
		o.expect("back to round 1", true)
	})

	t.Run("set-board-and-clear", func(t *testing.T) {
		o := newNeighborOracle(t, pair, r, parked())
		o.e.BeginRound(1)
		o.expect("round 1", true)
		moved := boardOf([]geo.Point{geo.Pt(100, 100), geo.Pt(900, 900)}, func(int) int { return 9 })
		o.e.SetBoard(moved)
		o.e.BeginRound(1)
		o.expect("new board", true)

		o.e.Clear()
		o.locs[0] = geo.Pt(600, 100)
		o.expect("cleared", true)
		o.e.BeginRound(1)
		o.expect("round 1 after the clear", true)
	})
}

// FuzzNeighborCounts checks incremental neighbor counts against a
// brute-force recount over fuzzed radii and move sequences. Each op
// byte selects a step: move one user (anywhere, to within an ulp of a
// task's radius, or to a non-finite point), move many, commit a
// measurement, change the round, or change the population.
func FuzzNeighborCounts(f *testing.F) {
	f.Add(int64(1), uint16(150), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), uint16(40), []byte{1, 1, 1, 1, 9, 1, 1, 10, 1, 1, 11, 1})
	f.Add(int64(3), uint16(999), []byte{2, 2, 3, 2, 2, 0, 0, 8, 2, 2, 6, 2})
	f.Fuzz(func(t *testing.T, seed int64, radius uint16, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := 1 + float64(radius%1000)
		rng := stats.NewRNG(seed)
		tasks := make([]task.Task, 24)
		for i := range tasks {
			tasks[i] = task.Task{
				ID:       task.ID(i + 1),
				Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
				Deadline: 1 + rng.Intn(6),
				Required: 1 + rng.Intn(2),
			}
		}
		locs := make([]geo.Point, 48)
		for i := range locs {
			locs[i] = geo.Pt(rng.Uniform(-50, 1050), rng.Uniform(-50, 1050))
		}
		o := newNeighborOracle(t, newTestBoard(t, tasks), r, locs)
		round := 1
		o.e.BeginRound(round)
		o.check("first count")
		anywhere := func() geo.Point { return geo.Pt(rng.Uniform(-50, 1050), rng.Uniform(-50, 1050)) }
		for step, op := range ops {
			user := rng.Intn(len(o.locs))
			switch op % 12 {
			case 0, 1:
				o.locs[user] = anywhere()
			case 2, 3:
				// On the radius of a task, give or take an ulp per axis.
				c := tasks[rng.Intn(len(tasks))].Location
				a := rng.Uniform(0, 2*math.Pi)
				p := geo.Pt(c.X+r*math.Cos(a), c.Y+r*math.Sin(a))
				for k := rng.Intn(3); k > 0; k-- {
					p.X = math.Nextafter(p.X, c.X)
				}
				for k := rng.Intn(3); k > 0; k-- {
					p.Y = math.Nextafter(p.Y, -c.Y)
				}
				o.locs[user] = p
			case 4:
				o.locs[user] = [...]geo.Point{
					geo.Pt(math.NaN(), 1), geo.Pt(1, math.Inf(1)), geo.Pt(math.Inf(-1), math.Inf(1)),
				}[rng.Intn(3)]
			case 5:
				for _, i := range rng.Perm(len(o.locs))[:len(o.locs)/2] {
					o.locs[i] = anywhere()
				}
			case 6:
				if open := o.e.Open(); len(open) > 0 {
					// The commit may fail (a repeat contributor): fine.
					_, _, _ = o.e.Commit(rng.Intn(8), open[rng.Intn(len(open))].ID)
				}
			case 7:
				round++
			case 8:
				round = rng.Intn(round + 1)
			case 9:
				o.locs = append(o.locs, anywhere())
			case 10:
				if len(o.locs) > 1 {
					o.locs = append(o.locs[:user], o.locs[user+1:]...)
				}
			case 11:
				o.e.Clear()
				o.check(fmt.Sprintf("op %d: cleared", step))
			}
			o.e.BeginRound(round)
			o.check(fmt.Sprintf("op %d (%d), round %d", step, op%12, round))
		}
	})
}
