package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"paydemand/internal/demand"
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
	p, _ := e.ProblemInto(Spec{Start: geo.Pt(50, 50), MaxDistance: 5000}, Worker(7), nil)
	if len(p.Candidates) != 3 || p.Candidates[1].ID != 2 || p.Candidates[1].Reward != 20 {
		t.Fatalf("problem candidates = %+v, want board tasks 1-3 at their rewards", p.Candidates)
	}

	// Task 1 needs one measurement: the commit pays the published reward
	// and completes the task on the board, leaving the others open.
	reward, err := e.Commit(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if completed := e.Board().Get(1).Complete(); reward != 10 || !completed {
		t.Errorf("commit = reward %v, completed %v", reward, completed)
	}
	for _, st := range board.States() {
		if st.Complete() != (st.ID == 1) {
			t.Errorf("task %d complete = %v after committing task 1", st.ID, st.Complete())
		}
	}
	// Double-fill protection: the same user again, then any user on the
	// now-complete task.
	if _, err := e.Commit(7, 1); err == nil {
		t.Error("repeat commit accepted")
	}
	if _, err := e.Commit(8, 1); err == nil {
		t.Error("commit to complete task accepted")
	}
	if _, err := e.Commit(7, 99); err == nil {
		t.Error("commit to unknown task accepted")
	}

	var rs metrics.RoundStats
	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 1 || rs.RewardPaid != 10 {
		t.Errorf("finish stats = %+v", rs)
	}

	// Next round: task 1 is complete and drops from the snapshot, which
	// holds only tasks still accepting measurements.
	open = e.BeginRound(2)
	if len(open) != 2 || open[0].ID != 2 || open[1].ID != 3 {
		t.Fatalf("round 2 open = %v", open)
	}
	for _, st := range open {
		if st.Complete() {
			t.Errorf("round 2 snapshot holds complete task %d", st.ID)
		}
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

// TestRoundStatsCountAcceptedCommits pins FinishRoundStats'
// NewMeasurements to the commits the board accepted since BeginRound:
// a repeat by the same user and a commit to a completed task are not
// counted, and the next BeginRound starts the count afresh, while the
// board-wide totals keep growing.
func TestRoundStatsCountAcceptedCommits(t *testing.T) {
	board := testBoard(t)
	e := testEngine(t, Config{Board: board})
	e.BeginRound(1)
	for _, c := range []struct {
		user int
		id   task.ID
		ok   bool
	}{
		{7, 2, true},
		{7, 2, false}, // already contributed
		{7, 1, true},  // completes task 1
		{8, 1, false}, // task 1 complete
		{8, 2, true},  // completes task 2
	} {
		if err := e.CommitPaid(c.user, c.id, 1); (err == nil) != c.ok {
			t.Fatalf("CommitPaid(%d, %d) err = %v, want accepted %v", c.user, c.id, err, c.ok)
		}
	}
	var rs metrics.RoundStats
	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 3 || rs.TotalMeasurements != 3 {
		t.Errorf("round 1 stats = %+v, want 3 new of 3 total", rs)
	}
	if rs.Coverage != 2.0/3 || rs.Completeness != 2.0/3 {
		t.Errorf("round 1 coverage %v completeness %v, want 2/3 each", rs.Coverage, rs.Completeness)
	}

	e.BeginRound(2)
	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 0 || rs.TotalMeasurements != 3 {
		t.Errorf("round 2 before commits = %+v, want 0 new of 3 total", rs)
	}
	if err := e.CommitPaid(7, 3, 1); err != nil {
		t.Fatal(err)
	}
	e.FinishRoundStats(&rs)
	if rs.NewMeasurements != 1 || rs.TotalMeasurements != 4 || rs.Coverage != 1 {
		t.Errorf("round 2 stats = %+v, want 1 new of 4 total, coverage 1", rs)
	}
}

// TestCommitPlan pins CommitPlan's partial-failure contract: the plan
// commits in order; on error n < len(ids), ids[n] is the task that
// failed, nothing after it was attempted, and the round's commits have
// filled exactly the closed tasks, in commit order. The board is
// testBoard's: tasks 1 and 3 fill on one measurement, task 2 needs two.
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
			// filled collects the tasks this round's commits completed,
			// in commit order, read from the board: after each prior
			// commit, then over the plan's committed prefix.
			var filled []task.ID
			for u, ids := range tt.prior {
				for _, id := range ids {
					if _, err := e.Commit(u, id); err != nil {
						t.Fatal(err)
					}
					if e.Board().Get(id).Complete() {
						filled = append(filled, id)
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
			for _, id := range tt.ids[:n] {
				if board.Get(id).Complete() {
					filled = append(filled, id)
				}
			}
			if !slices.Equal(filled, tt.closed) {
				t.Errorf("closed = %v, want %v", filled, tt.closed)
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
		board := testBoard(t)
		e := testEngine(t, Config{
			Board: board, Mechanism: mech,
			Area: geo.Square(1000), NeighborRadius: 100,
			RequirePriced: tc.requirePriced,
		})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		p, _ := e.ProblemInto(spec, Worker(1), nil)
		if !p.CandidatesValid {
			t.Errorf("requirePriced=%v: problem not marked CandidatesValid", tc.requirePriced)
		}
		if len(p.Candidates) != len(tc.wantIDs) {
			t.Fatalf("requirePriced=%v: %d candidates, want %d",
				tc.requirePriced, len(p.Candidates), len(tc.wantIDs))
		}
		for i, want := range tc.wantIDs {
			c := p.Candidates[i]
			if c.ID != want || c.Reward != mech.rewards[want] || c.Location != board.Get(want).Location {
				t.Errorf("requirePriced=%v: candidate %d = %+v", tc.requirePriced, i, c)
			}
		}

		// A task the actor contributed to drops out.
		if _, err := e.Commit(1, tc.wantIDs[0]); err != nil {
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
		if e.Rewards() != nil || e.MeanPublishedReward() != 0 {
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

// TestRepriceRejectsMissingMechanismInputs: every mechanism receives every
// Config input and rejects a missing one it uses, so the reprice fails
// with an error naming the input and unpublishes the prices a working
// mechanism had published for the same round.
func TestRepriceRejectsMissingMechanismInputs(t *testing.T) {
	scheme, err := incentive.SchemeFromBudget(1000, 4, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := incentive.NewFixed(scheme)
	if err != nil {
		t.Fatal(err)
	}
	incentme, err := incentive.NewIncentMe(scheme)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mech incentive.Mechanism
		cfg  Config
		want string
	}{
		{"auction without budget", incentive.NewAuction(), Config{BidCostPerMeter: 0.002}, "budget"},
		{"auction without bid cost", incentive.NewAuction(), Config{Budget: 1000}, "BidCostPerMeter"},
		{"auction with NaN bid cost", incentive.NewAuction(), Config{Budget: 1000, BidCostPerMeter: math.NaN()}, "BidCostPerMeter"},
		{"fixed without rng", fixed, Config{}, "RNG"},
		{"incentme without forecast", incentme, Config{}, "Mobility"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Board = testBoard(t)
			cfg.Mechanism = stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
			cfg.Area = geo.Square(1000)
			cfg.NeighborRadius = 100
			e := testEngine(t, cfg)
			users := []geo.Point{geo.Pt(200, 200), geo.Pt(600, 600)}
			e.BeginRound(1)
			if err := e.Reprice(users); err != nil || len(e.Rewards()) != 3 {
				t.Fatalf("stub reprice: %v, rewards %v", err, e.Rewards())
			}
			e.SetMechanism(tc.mech)
			err := e.Reprice(users)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %s", err, tc.want)
			}
			if _, priced := e.RewardAt(0); e.Rewards() != nil || priced || e.MeanPublishedReward() != 0 {
				t.Error("prices left published after the failed reprice")
			}
		})
	}
}

// TestRepriceRejectsNonFiniteTaskLocation pins Reprice's location check,
// the one that lets ProblemInto mark its problems CandidatesValid: a task
// whose location turned non-finite fails the reprice with an error naming
// it, and no rewards stay published, not even the previous round's.
func TestRepriceRejectsNonFiniteTaskLocation(t *testing.T) {
	for _, bad := range []geo.Point{geo.Pt(math.NaN(), 500), geo.Pt(500, math.Inf(-1))} {
		board := testBoard(t)
		mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20, 3: 30}}
		e := testEngine(t, Config{Board: board, Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
		e.BeginRound(1)
		if err := e.Reprice(nil); err != nil {
			t.Fatal(err)
		}
		board.Get(2).Location = bad
		e.BeginRound(2)
		err := e.Reprice([]geo.Point{geo.Pt(500, 500)})
		if err == nil {
			t.Fatalf("location %v: reprice accepted", bad)
		}
		if want := "task 2: non-finite location "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("location %v: err = %q, want prefix %q", bad, err, want)
		}
		if e.Rewards() != nil || e.MeanPublishedReward() != 0 {
			t.Errorf("location %v: rewards published despite the failed reprice", bad)
		}
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

// TestRewardAtFollowsPublication pins the positional reward table to the
// reward map it copies: after a reprice RewardAt(i) is RewardFor of the
// i-th open task, priced or not, and BeginRound, a failed reprice (NaN
// reward, non-finite location, mechanism error) and Clear unpublish both
// alike, so an unpublished round prices nothing by position either.
func TestRewardAtFollowsPublication(t *testing.T) {
	board := testBoard(t)
	mech := stubMechanism{rewards: map[task.ID]float64{1: 10, 2: 20}} // task 3 unpriced
	e := testEngine(t, Config{Board: board, Mechanism: mech, Area: geo.Square(1000), NeighborRadius: 100})
	check := func(stage string, published bool) {
		t.Helper()
		if got := e.Rewards() != nil; got != published {
			t.Fatalf("%s: rewards published = %v, want %v", stage, got, published)
		}
		for i, st := range e.Open() {
			gotR, gotOK := e.RewardAt(i)
			wantR, wantOK := e.RewardFor(st.ID)
			if gotR != wantR || gotOK != wantOK {
				t.Errorf("%s: RewardAt(%d) = %v, %v; RewardFor(%d) = %v, %v", stage, i, gotR, gotOK, st.ID, wantR, wantOK)
			}
		}
		if r, ok := e.RewardAt(len(e.Open())); r != 0 || ok {
			t.Errorf("%s: RewardAt past the snapshot = %v, %v", stage, r, ok)
		}
	}
	reprice := func(stage string, wantErr bool) {
		t.Helper()
		if err := e.Reprice(nil); (err != nil) != wantErr {
			t.Fatalf("%s: reprice error %v, want error %v", stage, err, wantErr)
		}
	}

	e.BeginRound(1)
	check("before reprice", false)
	reprice("round 1", false)
	check("round 1", true)
	e.BeginRound(2)
	check("begin round 2", false)
	reprice("round 2", false)
	check("round 2", true)

	e.SetMechanism(stubMechanism{rewards: map[task.ID]float64{1: 1, 2: math.NaN()}})
	reprice("NaN reward", true)
	check("NaN reward", false)
	e.SetMechanism(stubMechanism{err: fmt.Errorf("backend down")})
	reprice("mechanism error", true)
	check("mechanism error", false)
	e.SetMechanism(mech)
	loc := board.Get(3).Location
	board.Get(3).Location = geo.Pt(math.NaN(), 0)
	reprice("non-finite location", true)
	check("non-finite location", false)
	board.Get(3).Location = loc
	reprice("recovered", false)
	check("recovered", true)
	e.Clear()
	check("clear", false)
}
