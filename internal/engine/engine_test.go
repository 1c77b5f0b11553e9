package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/metrics"
	"paydemand/internal/task"
)

// stubMechanism prices every view at a fixed reward per task ID offset,
// reusing one map so steady-state repricing can be measured allocation-
// free. A nil rewards map makes it price nothing.
type stubMechanism struct {
	rewards map[task.ID]float64
	err     error
}

func (stubMechanism) Name() string { return "stub" }

func (stubMechanism) Requires() incentive.Capabilities { return 0 }

func (m stubMechanism) RewardsInto(in *incentive.RoundInput, out map[task.ID]float64) error {
	if m.err != nil {
		return m.err
	}
	for _, v := range in.Views {
		if r, ok := m.rewards[v.ID]; ok {
			out[v.ID] = r
		}
	}
	return nil
}

func (m stubMechanism) Rewards(in *incentive.RoundInput) (map[task.ID]float64, error) {
	out := make(map[task.ID]float64, len(in.Views))
	if err := m.RewardsInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

func testBoard(t *testing.T) *task.Board {
	t.Helper()
	b, err := task.NewBoard([]task.Task{
		{ID: 1, Location: geo.Pt(100, 100), Deadline: 3, Required: 1},
		{ID: 2, Location: geo.Pt(500, 500), Deadline: 5, Required: 2},
		{ID: 3, Location: geo.Pt(900, 900), Deadline: 2, Required: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewNilBoard(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil board accepted")
	}
}

func TestRoundPipeline(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{
		Board: board, Mechanism: mech,
		Area: geo.Square(1000), NeighborRadius: 100,
	})

	open := e.BeginRound(1)
	if len(open) != 3 {
		t.Fatalf("open = %d tasks, want 3", len(open))
	}
	if e.Rewards() != nil {
		t.Fatal("rewards published before reprice")
	}
	if err := e.Reprice([]geo.Point{geo.Pt(50, 50)}); err != nil {
		t.Fatal(err)
	}
	if got := e.MeanPublishedReward(); got != 20 {
		t.Errorf("mean reward = %v, want 20", got)
	}
	if r, ok := e.RewardFor(2); !ok || r != 20 {
		t.Errorf("RewardFor(2) = %v, %v", r, ok)
	}
	if ctx := e.Context(); ctx == nil || ctx.Len() != 3 {
		t.Fatalf("context = %v", ctx)
	}

	var rs metrics.RoundStats
	e.StartRoundStats(&rs)
	if rs.Round != 1 || rs.OpenTasks != 3 || rs.MeanPublishedReward != 20 {
		t.Errorf("start stats = %+v", rs)
	}

	// Task 1 needs one measurement: the commit pays the published reward,
	// completes the task, and lands in the closed set.
	reward, completed, err := e.Commit(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reward != 10 || !completed {
		t.Errorf("commit = reward %v, completed %v", reward, completed)
	}
	if got := e.Closed(); len(got) != 1 || got[0] != 1 {
		t.Errorf("closed = %v", got)
	}
	// Double-fill protection: the same user again, then any user on the
	// now-complete task.
	if _, _, err := e.Commit(7, 1); err == nil {
		t.Error("repeat commit accepted")
	}
	if _, _, err := e.Commit(8, 1); err == nil {
		t.Error("commit to complete task accepted")
	}
	if _, _, err := e.Commit(7, 99); err == nil {
		t.Error("commit to unknown task accepted")
	}

	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 1 || rs.RewardPaid != 10 {
		t.Errorf("finish stats = %+v", rs)
	}

	// Next round: task 1 is complete and drops from the snapshot; the
	// closed set resets.
	open = e.BeginRound(2)
	if len(open) != 2 || open[0].ID != 2 || open[1].ID != 3 {
		t.Fatalf("round 2 open = %v", open)
	}
	if len(e.Closed()) != 0 {
		t.Error("closed set survived BeginRound")
	}

	var tr metrics.TrialResult
	e.FinishTrial(&tr)
	if tr.TotalMeasurements != 1 || tr.TotalRewardPaid != 10 {
		t.Errorf("trial = %+v", tr)
	}
	if tr.Coverage != 1.0/3 {
		t.Errorf("coverage = %v", tr.Coverage)
	}
}

// TestCommitPlan pins CommitPlan's partial-failure contract: the plan
// commits in order; on error n < len(ids), ids[n] is the task that
// failed, nothing after it was attempted, and Closed lists the tasks
// filled so far in commit order. The board is testBoard's: tasks 1 and 3
// fill on one measurement, task 2 needs two.
func TestCommitPlan(t *testing.T) {
	const user = 7
	tests := []struct {
		name    string
		prior   map[int][]task.ID // commits made before the plan, keyed by user
		ids     []task.ID
		wantN   int
		wantErr error // nil: success; errUnknown: unknown-task error
		closed  []task.ID
		paid    float64 // board total after the plan
	}{
		{name: "empty", ids: nil, wantN: 0, paid: 0},
		{name: "all commit", ids: []task.ID{3, 1, 2}, wantN: 3, closed: []task.ID{3, 1}, paid: 60},
		{name: "unknown mid plan", ids: []task.ID{1, 99, 3}, wantN: 1, wantErr: errUnknown, closed: []task.ID{1}, paid: 10},
		{name: "unknown first", ids: []task.ID{99, 1}, wantN: 0, wantErr: errUnknown, paid: 0},
		{name: "repeat within plan", ids: []task.ID{2, 2, 3}, wantN: 1, wantErr: task.ErrAlreadyContributed, paid: 20},
		{
			name:  "already contributed",
			prior: map[int][]task.ID{user: {2}},
			ids:   []task.ID{1, 2, 3}, wantN: 1, wantErr: task.ErrAlreadyContributed,
			closed: []task.ID{1}, paid: 30,
		},
		{
			name:  "filled by another user",
			prior: map[int][]task.ID{8: {3}},
			ids:   []task.ID{2, 3, 1}, wantN: 1, wantErr: task.ErrCompleted,
			closed: []task.ID{3}, paid: 50,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			board := testBoard(t)
			e := testEngine(t, Config{
				Board: board, Mechanism: stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}},
				Area: geo.Square(1000), NeighborRadius: 100,
			})
			e.BeginRound(1)
			if err := e.Reprice(nil); err != nil {
				t.Fatal(err)
			}
			for u, ids := range tt.prior {
				for _, id := range ids {
					if _, _, err := e.Commit(u, id); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := make(map[task.ID]int)
			for _, st := range board.States() {
				before[st.ID] = st.Received()
			}

			n, err := e.CommitPlan(user, tt.ids)
			if n != tt.wantN {
				t.Fatalf("n = %d, want %d (err %v)", n, tt.wantN, err)
			}
			switch {
			case tt.wantErr == nil:
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
				if n != len(tt.ids) {
					t.Errorf("n = %d on success, want len(ids) = %d", n, len(tt.ids))
				}
			case err == nil:
				t.Fatalf("err = nil, want %v", tt.wantErr)
			default:
				if n >= len(tt.ids) {
					t.Fatalf("n = %d on error, want < %d", n, len(tt.ids))
				}
				if tt.wantErr == errUnknown {
					if want := fmt.Sprintf("engine: commit to unknown task %d", tt.ids[n]); err.Error() != want {
						t.Errorf("err = %q, want %q", err, want)
					}
				} else if !errors.Is(err, tt.wantErr) {
					t.Errorf("err = %v, want %v", err, tt.wantErr)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("task %d", tt.ids[n])) {
					t.Errorf("err %q does not name ids[n] = %d", err, tt.ids[n])
				}
				for _, id := range tt.ids[n+1:] {
					if st := board.Get(id); st != nil && st.Received() != before[id] {
						t.Errorf("task %d after the failure was attempted", id)
					}
				}
			}
			if got := e.Closed(); !slices.Equal(got, tt.closed) {
				t.Errorf("closed = %v, want %v", got, tt.closed)
			}
			if got := board.TotalRewardPaid(); got != tt.paid {
				t.Errorf("total paid = %v, want %v", got, tt.paid)
			}
		})
	}
}

// errUnknown marks a TestCommitPlan case failing on a task the board
// does not hold, whose error wraps no sentinel.
var errUnknown = errors.New("unknown task")

func TestProblemIntoFiltering(t *testing.T) {
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20}} // task 3 unpriced
	spec := Spec{Start: geo.Pt(0, 0), MaxDistance: 5000, CostPerMeter: 0.001}

	for _, tc := range []struct {
		requirePriced bool
		wantIDs       []task.ID
	}{
		// The simulator offers unpriced open tasks at reward 0; the
		// platform drops them.
		{requirePriced: false, wantIDs: []task.ID{1, 2, 3}},
		{requirePriced: true, wantIDs: []task.ID{1, 2}},
	} {
		e := testEngine(t, Config{
			Board: testBoard(t), Mechanism: mech,
			Area: geo.Square(1000), NeighborRadius: 100,
			RequirePriced: tc.requirePriced,
		})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		p, _ := e.ProblemInto(spec, Worker(1), nil)
		if !p.CandidatesValid || p.Ctx == nil {
			t.Errorf("requirePriced=%v: problem = valid %v, ctx %v",
				tc.requirePriced, p.CandidatesValid, p.Ctx)
		}
		if len(p.Candidates) != len(tc.wantIDs) {
			t.Fatalf("requirePriced=%v: %d candidates, want %d",
				tc.requirePriced, len(p.Candidates), len(tc.wantIDs))
		}
		for i, want := range tc.wantIDs {
			c := p.Candidates[i]
			if c.ID != want || c.Reward != mech.rewards[want] || c.CtxIndex != i {
				t.Errorf("requirePriced=%v: candidate %d = %+v", tc.requirePriced, i, c)
			}
		}

		// A task the actor contributed to drops out.
		if _, _, err := e.Commit(1, tc.wantIDs[0]); err != nil {
			t.Fatal(err)
		}
		p, _ = e.ProblemInto(spec, Worker(1), nil)
		if len(p.Candidates) != len(tc.wantIDs)-1 || p.Candidates[0].ID == tc.wantIDs[0] {
			t.Errorf("requirePriced=%v: after commit candidates = %v", tc.requirePriced, p.Candidates)
		}
	}
}

func TestRepriceErrors(t *testing.T) {
	board := testBoard(t)
	area := geo.Square(1000)

	t.Run("no mechanism", func(t *testing.T) {
		e := testEngine(t, Config{Board: board})
		e.BeginRound(1)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("reprice without mechanism accepted")
		}
	})
	t.Run("mechanism error unpublishes", func(t *testing.T) {
		good := stubMechanism{rewards: map[task.ID]float64{1: 10}}
		e := testEngine(t, Config{Board: board, Mechanism: good, Area: area, NeighborRadius: 100})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		e.SetMechanism(stubMechanism{err: fmt.Errorf("backend down")})
		e.BeginRound(2)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("mechanism error swallowed")
		}
		if e.Rewards() != nil || e.Context() != nil || e.MeanPublishedReward() != 0 {
			t.Error("stale state left published after failed reprice")
		}
	})
	t.Run("NaN reward", func(t *testing.T) {
		bad := stubMechanism{rewards: map[task.ID]float64{1: 1, 2: math.NaN()}}
		e := testEngine(t, Config{Board: board, Mechanism: bad, Area: area, NeighborRadius: 100})
		e.BeginRound(1)
		err := e.Reprice(nil)
		if err == nil {
			t.Fatal("NaN reward accepted")
		}
		if want := "mechanism stub: NaN reward for task 2"; err.Error() != want {
			t.Errorf("err = %q, want %q", err, want)
		}
		if e.Rewards() != nil {
			t.Error("rewards published despite NaN")
		}
	})
	t.Run("bad area surfaces at reprice", func(t *testing.T) {
		mech := stubMechanism{rewards: map[task.ID]float64{1: 1}}
		e := testEngine(t, Config{Board: board, Mechanism: mech}) // no area/radius
		e.BeginRound(1)
		if err := e.Reprice(nil); err == nil {
			t.Fatal("invalid grid configuration accepted")
		}
	})
	t.Run("no open tasks publishes nothing", func(t *testing.T) {
		e := testEngine(t, Config{Board: board, Mechanism: stubMechanism{err: fmt.Errorf("never called")}})
		e.BeginRound(100) // past every deadline
		if err := e.Reprice(nil); err != nil {
			t.Fatalf("empty-round reprice consulted the mechanism: %v", err)
		}
	})
}

func TestDisableContext(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{
		Board: board, Mechanism: mech,
		Area: geo.Square(1000), NeighborRadius: 100,
		DisableContext: true,
	})
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	if e.Context() != nil {
		t.Error("context built despite DisableContext")
	}
	p, _ := e.ProblemInto(Spec{Start: geo.Pt(0, 0), MaxDistance: 5000}, Worker(1), nil)
	if p.Ctx != nil {
		t.Error("problem linked a context despite DisableContext")
	}
}

// TestContextLivesForBoard pins the board-lifetime context: one table
// over every board task, indexed by board position, republished unchanged
// round after round, unpublished between BeginRound and Reprice, and
// replaced by a freshly allocated table when the board is swapped.
func TestContextLivesForBoard(t *testing.T) {
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: testBoard(t), Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	if e.Context() != nil {
		t.Fatal("context built before the first reprice")
	}
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	first := e.Context()
	if first == nil || first.Len() != 3 {
		t.Fatalf("context = %v, want a table over all 3 board tasks", first)
	}
	want := first.Dist(1, 2)

	// Completing task 1 shrinks the open set; the table does not shrink,
	// and candidates link to it by board position.
	if _, _, err := e.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	e.BeginRound(2)
	if e.Context() != nil {
		t.Error("context still published after BeginRound")
	}
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	if e.Context() != first || first.Len() != 3 || first.Dist(1, 2) != want {
		t.Error("reprice rebuilt or changed the board's table")
	}
	p, _ := e.ProblemInto(Spec{Start: geo.Pt(0, 0), MaxDistance: 5000}, Worker(2), nil)
	if len(p.Candidates) != 2 || p.Candidates[0].CtxIndex != 1 || p.Candidates[1].CtxIndex != 2 {
		t.Errorf("candidates = %+v, want board positions 1 and 2", p.Candidates)
	}

	// A new board gets a new table; the old one is left as it was for any
	// solve still reading it.
	e.SetBoard(testBoard(t))
	if e.Context() != nil {
		t.Error("context published across SetBoard")
	}
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	if e.Context() == first {
		t.Error("SetBoard reused the previous board's table")
	}
	if first.Dist(1, 2) != want {
		t.Error("previous board's table mutated")
	}
}

// TestProblemIntoReach pins the reach bound: a task past the budget is no
// candidate, one exactly on it is, and a NaN budget keeps every task so
// Validate still rejects the problem.
func TestProblemIntoReach(t *testing.T) {
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: testBoard(t), Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	start := geo.Pt(100, 0)
	for _, tc := range []struct {
		budget  float64
		wantIDs []task.ID
	}{
		{99, nil},
		{100, []task.ID{1}}, // task 1 sits exactly on the budget
		{math.Nextafter(100, 0), nil},
		{math.Inf(1), []task.ID{1, 2, 3}},
		{math.NaN(), []task.ID{1, 2, 3}},
	} {
		p, _ := e.ProblemInto(Spec{Start: start, MaxDistance: tc.budget}, Worker(1), nil)
		var got []task.ID
		for _, c := range p.Candidates {
			got = append(got, c.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.wantIDs) {
			t.Errorf("budget %v: candidates %v, want %v", tc.budget, got, tc.wantIDs)
		}
		if err := p.Validate(); (err != nil) != math.IsNaN(tc.budget) {
			t.Errorf("budget %v: Validate = %v", tc.budget, err)
		}
	}
}

// TestProblemIntoAllocs pins candidate assembly into a reused buffer at
// zero allocations.
func TestProblemIntoAllocs(t *testing.T) {
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: testBoard(t), Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	e.BeginRound(1)
	if err := e.Reprice(nil); err != nil {
		t.Fatal(err)
	}
	var who Actor = Worker(1)
	spec := Spec{Start: geo.Pt(0, 0), MaxDistance: 800, CostPerMeter: 0.001}
	_, buf := e.ProblemInto(spec, who, nil)
	allocs := testing.AllocsPerRun(100, func() {
		_, buf = e.ProblemInto(spec, who, buf)
	})
	if allocs > 0 {
		t.Errorf("ProblemInto allocates %v objects/op, want 0", allocs)
	}
	if len(buf) != 2 {
		t.Errorf("%d candidates, want the 2 tasks within reach", len(buf))
	}
}

// TestRepriceSteadyStateAllocs pins the zero-allocation contract: once
// buffers have grown, a reprice allocates nothing beyond what the
// mechanism itself returns (here nothing: the stub reuses one map).
func TestRepriceSteadyStateAllocs(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
	e := testEngine(t, Config{Board: board, Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	locs := []geo.Point{geo.Pt(50, 50), geo.Pt(800, 800)}

	e.BeginRound(1)
	if err := e.Reprice(locs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.BeginRound(1)
		if err := e.Reprice(locs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state reprice allocates %v objects/op, want 0", allocs)
	}
}
