package engine

import (
	"fmt"
	"math"
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
