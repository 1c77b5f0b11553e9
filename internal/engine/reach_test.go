package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// unprunedProblem is ProblemInto without the reach bound: every open task
// the actor may still measure, in board order, linked to the context by
// board position — the candidate list the engine built before it dropped
// unreachable tasks.
func (e *Engine) unprunedProblem(spec Spec, who Actor) selection.Problem {
	p := selection.Problem{
		Start:           spec.Start,
		MaxDistance:     spec.MaxDistance,
		CostPerMeter:    spec.CostPerMeter,
		PerTaskDistance: spec.PerTaskDistance,
		Ctx:             e.ctx,
		CandidatesValid: true,
	}
	for i, st := range e.open {
		if !st.OpenAt(e.round) || st.Contributed(who.ActorID()) || who.HasDone(st.ID) {
			continue
		}
		reward, priced := e.rewards[st.ID]
		if e.cfg.RequirePriced && !priced {
			continue
		}
		p.Candidates = append(p.Candidates, selection.Candidate{
			ID: st.ID, Location: st.Location, Reward: reward, CtxIndex: e.openPos[i],
		})
	}
	return p
}

// TestReachBoundedProblemsSolveIdentically is the property behind the
// reach bound: on random boards, every solver returns the byte-identical
// plan (or error) for ProblemInto's reach-bounded problem and for the
// unpruned board-order candidate list. Budgets are drawn to put tasks
// exactly on the reach boundary and one ulp either side of it, boards
// include tasks on the user's axes (where the cheap |dx|/|dy| reject is
// tight), and some budgets are infinite or NaN.
func TestReachBoundedProblemsSolveIdentically(t *testing.T) {
	// Small exact caps keep the test fast; past them DP errors and Auto
	// dispatches to the beam, so every branch is still compared.
	solvers := []func() selection.Algorithm{
		func() selection.Algorithm { return &selection.DP{MaxTasks: 12} },
		func() selection.Algorithm { return &selection.Beam{} },
		func() selection.Algorithm { return &selection.Greedy{} },
		func() selection.Algorithm { return &selection.TwoOptGreedy{} },
		func() selection.Algorithm { return &selection.Auto{Threshold: 8} },
	}
	rng := stats.NewRNG(42)
	const boards = 40
	for b := 0; b < boards; b++ {
		start := geo.Pt(math.Round(rng.Uniform(0, 1000)), math.Round(rng.Uniform(0, 1000)))
		var tasks []task.Task
		add := func(loc geo.Point) {
			tasks = append(tasks, task.Task{ID: task.ID(len(tasks) + 1), Location: loc, Deadline: 3, Required: 2})
		}
		for i := 0; i < 30; i++ {
			add(geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)))
		}
		for i := 0; i < 6; i++ {
			// On the user's axes: Dist equals |dx| (or |dy|) exactly.
			off := math.Round(rng.Uniform(-300, 300))
			if i%2 == 0 {
				add(geo.Pt(start.X+off, start.Y))
			} else {
				add(geo.Pt(start.X, start.Y+off))
			}
		}
		rewards := make(map[task.ID]float64, len(tasks))
		for _, tk := range tasks {
			switch rng.Intn(8) {
			case 0: // unpriced
			case 1:
				rewards[tk.ID] = 0
			default:
				rewards[tk.ID] = rng.Uniform(0.1, 3)
			}
		}
		board, err := task.NewBoard(tasks)
		if err != nil {
			t.Fatal(err)
		}
		e := testEngine(t, Config{
			Board: board, Mechanism: stubMechanism{rewards: rewards},
			Area: geo.Square(1000), NeighborRadius: 100,
			DisableContext: b%4 == 3,
			RequirePriced:  b%2 == 1,
		})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		// The actor already measured a few tasks.
		who := Worker(7)
		for _, tk := range tasks[:3] {
			if _, _, err := e.Commit(int(who), tk.ID); err != nil {
				t.Fatal(err)
			}
		}

		perTask := 0.0
		if b%3 != 0 {
			perTask = math.Round(rng.Uniform(1, 40))
		}
		var budgets []float64
		for k := 0; k < 4; k++ {
			// Budget exactly on one task's reach boundary, then one ulp
			// below and above it.
			loc := tasks[rng.Intn(len(tasks))].Location
			edge := start.Dist(loc) + perTask
			budgets = append(budgets, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		budgets = append(budgets, rng.Uniform(0, 400), 0, math.Inf(1), math.NaN())

		for _, budget := range budgets {
			spec := Spec{Start: start, MaxDistance: budget, CostPerMeter: 0.002, PerTaskDistance: perTask}
			pruned, _ := e.ProblemInto(spec, who, nil)
			full := e.unprunedProblem(spec, who)
			for _, mk := range solvers {
				alg := mk()
				got := outcome(alg.Select(pruned))
				want := outcome(mk().Select(full))
				if got != want {
					t.Fatalf("board %d budget %v per-task %v %s:\n pruned   %s\n unpruned %s",
						b, budget, perTask, alg.Name(), got, want)
				}
			}
		}
	}
}

// outcome renders a solver result for byte comparison; %v prints floats
// in their shortest round-tripping form.
func outcome(plan selection.Plan, err error) string {
	return fmt.Sprintf("%v | %v", plan, err)
}

// TestProblemIntoGridMatchesLinearScan pins the reach index: on random
// boards, ProblemInto's grid path returns the byte-identical candidate
// list the linear scan over the whole snapshot returns. The snapshot's
// bounding box and size are fixed so the index's cells have side 200
// and seams at multiples of 200; tasks and actor starts sit on those
// seams and at cell centers (where a 200 m reach box has its edges on
// seams), tasks lie outside Area, some tasks are closed mid-round by
// other users' commits, and budgets include ones that put a task exactly
// on the reach boundary and one ulp either side, boxes too large for the
// index (the fallback), and negative, NaN and infinite budgets and
// overheads.
func TestProblemIntoGridMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(7)
	inf, nan := math.Inf(1), math.NaN()
	seam := func() float64 { return -200 + 200*float64(rng.Intn(15)) }
	var grid, linear int
	for b := 0; b < 30; b++ {
		// 196 tasks spanning [-200, 2600]²: cells of 2800/⌈√196⌉ = 200 m.
		locs := []geo.Point{geo.Pt(-200, -200), geo.Pt(2600, 2600)}
		for len(locs) < 196 {
			switch rng.Intn(3) {
			case 0:
				locs = append(locs, geo.Pt(seam(), seam()))
			case 1:
				locs = append(locs, geo.Pt(seam(), rng.Uniform(-200, 2600)))
			default:
				locs = append(locs, geo.Pt(rng.Uniform(-200, 2600), rng.Uniform(-200, 2600)))
			}
		}
		var tasks []task.Task
		rewards := map[task.ID]float64{}
		for i, loc := range locs {
			id := task.ID(i + 1)
			tasks = append(tasks, task.Task{ID: id, Location: loc, Deadline: 3, Required: 1 + rng.Intn(2)})
			if rng.Intn(5) > 0 {
				rewards[id] = rng.Uniform(0, 3)
			}
		}
		board, err := task.NewBoard(tasks)
		if err != nil {
			t.Fatal(err)
		}
		e := testEngine(t, Config{
			Board: board, Mechanism: stubMechanism{rewards: rewards},
			Area: geo.Square(1000), NeighborRadius: 100,
			RequirePriced: b%2 == 1,
		})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		// Other users close some tasks mid-round; the actor measured some.
		who := Worker(7)
		for i := 2; i < len(tasks); i += 5 {
			if _, _, err := e.Commit(100+i, tasks[i].ID); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Commit(int(who), tasks[i+1].ID); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 40; q++ {
			start := geo.Pt(rng.Uniform(-400, 2800), rng.Uniform(-400, 2800))
			switch q % 4 {
			case 0:
				start = geo.Pt(seam(), seam())
			case 1:
				start = geo.Pt(seam()+100, seam()+100)
			}
			ovh := 0.0
			switch q % 5 {
			case 1:
				ovh = math.Round(rng.Uniform(1, 30))
			case 2:
				ovh = rng.Uniform(0, 30)
			}
			near := math.Inf(1)
			for _, loc := range locs {
				near = math.Min(near, start.Dist(loc)+ovh)
			}
			far := start.Dist(locs[rng.Intn(len(locs))]) + ovh
			budgets := []float64{
				near, math.Nextafter(near, -inf), math.Nextafter(near, inf),
				far, math.Nextafter(far, -inf), math.Nextafter(far, inf),
				rng.Uniform(0, 300), 100, 200, 0, -5, 5000, inf, -inf, nan,
			}
			switch q {
			case 0:
				start = geo.Pt(nan, 0)
			case 1:
				ovh = nan
			case 2:
				ovh = -10
			}
			for _, budget := range budgets {
				spec := Spec{Start: start, MaxDistance: budget, CostPerMeter: 0.002, PerTaskDistance: ovh}
				if _, _, _, _, ok := e.reachSpan(start, ovh, budget); ok {
					grid++
				} else {
					linear++
				}
				got, _ := e.ProblemInto(spec, who, nil)
				e.reachOK = false
				want, _ := e.ProblemInto(spec, who, nil)
				e.reachOK = true
				if !slices.Equal(got.Candidates, want.Candidates) {
					t.Fatalf("board %d start %v budget %v overhead %v:\n grid   %v\n linear %v",
						b, start, budget, ovh, got.Candidates, want.Candidates)
				}
			}
		}
	}
	if grid < 1000 || linear < 1000 {
		t.Fatalf("paths exercised: grid %d, linear %d; want both often", grid, linear)
	}
}

// TestProblemIntoConcurrentReaders runs the grid path from several
// goroutines at once, as the simulator's speculative workers do, and
// checks each result against a sequential call; under -race it also
// shows the reach index is only read.
func TestProblemIntoConcurrentReaders(t *testing.T) {
	e, starts := cityEngine(t)
	want := make([][]selection.Candidate, len(starts))
	for i, s := range starts {
		p, _ := e.ProblemInto(Spec{Start: s, MaxDistance: 150, CostPerMeter: 0.002}, Worker(1), nil)
		want[i] = p.Candidates
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []selection.Candidate
			for i, s := range starts {
				_, buf = e.ProblemInto(Spec{Start: s, MaxDistance: 150, CostPerMeter: 0.002}, Worker(1), buf)
				if !slices.Equal(buf, want[i]) {
					t.Errorf("start %v: concurrent candidates %v, sequential %v", s, buf, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// cityEngine builds a repriced engine over a city-sized board (1000 open
// tasks over 3 km) and 200 actor starts on it.
func cityEngine(t *testing.T) (*Engine, []geo.Point) {
	t.Helper()
	rng := stats.NewRNG(3)
	tasks := make([]task.Task, 1000)
	for i := range tasks {
		tasks[i] = task.Task{ID: task.ID(i + 1), Location: geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000)), Deadline: 5, Required: 3}
	}
	e := testEngine(t, Config{
		Board: newTestBoard(t, tasks), Mechanism: stubMechanism{rewards: map[task.ID]float64{}},
		Area: geo.Square(3000), NeighborRadius: 500,
	})
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	starts := make([]geo.Point, 200)
	for i := range starts {
		starts[i] = geo.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
	}
	return e, starts
}

// TestProblemIntoCitySizeAllocs pins that candidate assembly at city
// size (1000 open tasks over 3 km, a 50 m reach, so the grid path runs)
// allocates nothing once the caller's buffer has grown.
func TestProblemIntoCitySizeAllocs(t *testing.T) {
	e, starts := cityEngine(t)
	if _, _, _, _, ok := e.reachSpan(starts[0], 0, 50); !ok {
		t.Fatal("a 50 m reach on a 3 km board takes the linear scan")
	}
	var buf []selection.Candidate
	var who Actor = Worker(1)
	run := func() {
		for _, s := range starts {
			_, buf = e.ProblemInto(Spec{Start: s, MaxDistance: 50, CostPerMeter: 0.002}, who, buf)
		}
	}
	run() // grow buf
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Errorf("steady-state ProblemInto allocates %v objects per %d calls, want 0", allocs, len(starts))
	}
}
