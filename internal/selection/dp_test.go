package selection

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

var updateDPPlans = flag.Bool("update", false, "rewrite testdata/dp_plans.json from the current DP solver")

// dpPlansFile holds one JSON-encoded Plan per corpus instance, in corpus
// order, as the exact solver produced it when the file was last written.
const dpPlansFile = "testdata/dp_plans.json"

// dpCorpusSize is the number of instances dpCorpus generates.
const dpCorpusSize = 2000

// dpCorpus builds the seeded instance corpus behind the recorded-plan
// oracle. It sweeps every instance size m = 0..16 and mixes the regimes
// where a DP rewrite can silently change a plan:
//
//   - budgets from 0 to 3000 m in a 1000 m square, skewed towards the
//     tight end the simulations run at, plus unbounded (+Inf) budgets;
//   - positive per-task overhead on half the instances;
//   - grid-aligned start and task locations on a third of them, which
//     produce equal path lengths (and co-located tasks);
//   - equal rewards on a third, which produce equal profits;
//   - a shared RoundContext on half, over a superset of the candidates.
//
// The problems are regenerated from the seed on every run, so only the
// plans are recorded.
func dpCorpus() []Problem {
	rng := stats.NewRNG(15015)
	out := make([]Problem, 0, dpCorpusSize)
	for i := 0; i < dpCorpusSize; i++ {
		m := i % 17
		grid := rng.Intn(3) == 0
		equalRewards := rng.Intn(3) == 0
		withCtx := rng.Intn(2) == 0
		point := func() geo.Point {
			if grid {
				return geo.Pt(100*float64(rng.IntBetween(0, 10)), 100*float64(rng.IntBetween(0, 10)))
			}
			return geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
		}

		p := Problem{Start: point()}
		switch r := rng.Float64(); {
		case r < 0.04:
			p.MaxDistance = math.Inf(1)
		case r < 0.07:
			p.MaxDistance = 0
		default:
			u := rng.Float64()
			p.MaxDistance = 3000 * u * u
		}
		if rng.Intn(5) > 0 {
			p.CostPerMeter = rng.Uniform(0, 0.003)
		}
		if rng.Intn(2) == 0 {
			p.PerTaskDistance = rng.Uniform(0, 150)
		}

		// The context covers a few tasks nobody here may pick, so
		// CtxIndex differs from the candidate position.
		n := m
		if withCtx {
			n += rng.IntBetween(0, 4)
		}
		locs := make([]geo.Point, n)
		for k := range locs {
			locs[k] = point()
		}
		reward := rng.Uniform(0.5, 4)
		for _, k := range rng.Perm(n)[:m] {
			c := Candidate{ID: task.ID(k + 1), Location: locs[k], Reward: reward, CtxIndex: k}
			if !equalRewards {
				c.Reward = rng.Uniform(-0.5, 4) // occasionally non-positive, exercising the filter
			}
			p.Candidates = append(p.Candidates, c)
		}
		if withCtx {
			ctx, err := NewRoundContext(locs)
			if err != nil {
				panic(err)
			}
			p.Ctx = ctx
		}
		out = append(out, p)
	}
	return out
}

// TestDPMatchesRecordedPlans is the exact solver's byte-identity oracle:
// every plan of the seeded corpus must encode to exactly the bytes
// recorded in testdata/dp_plans.json. JSON floats round-trip exactly, so
// any change in order, path, or accounting fails. One solver value runs
// the whole corpus, so stale scratch between calls fails too.
//
// Regenerate the file with `go test ./internal/selection/ -run
// TestDPMatchesRecordedPlans -update`, only when a plan change is
// intended.
func TestDPMatchesRecordedPlans(t *testing.T) {
	corpus := dpCorpus()
	got := make([][]byte, len(corpus))
	dp := &DP{}
	for i, p := range corpus {
		pl, err := dp.Select(p)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		b, err := json.Marshal(pl)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		got[i] = b
	}

	path := filepath.FromSlash(dpPlansFile)
	if *updateDPPlans {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, b := range got {
			buf.Write(b)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s records %d plans, the corpus has %d instances", dpPlansFile, len(want), len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("instance %d (m=%d, budget %v):\n got  %s\n want %s",
				i, len(corpus[i].Candidates), corpus[i].MaxDistance, got[i], want[i])
		}
	}
}

// TestDPFrontierAllocFree pins the scratch discipline on a tight-budget
// m = 16 instance: a steady-state solve allocates only the returned Plan
// (order + path), and the retained state table holds rows for the
// budget-feasible subsets alone, far below the dense 2^16 x 16 layout.
func TestDPFrontierAllocFree(t *testing.T) {
	p := dpReachProblem(16, 600)
	dp := &DP{}
	pl, err := dp.Select(p) // warm the scratch
	if err != nil {
		t.Fatal(err)
	}
	if pl.Empty() {
		t.Fatal("instance yields an empty plan; the allocation pin needs a non-empty one")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := dp.Select(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state DP Select allocates %v times per run, want <= 2 (the returned Plan)", allocs)
	}
	const dense = 1 << 16 * 16
	if c := cap(dp.dp); c > dense/64 {
		t.Errorf("retained state table holds %d entries after a tight-budget solve, want <= %d (1/64 of dense %d)",
			c, dense/64, dense)
	}
}

// TestDPUnboundedBudget pins the worst case: at an unbounded budget every
// subset of an m = 16 instance is feasible, and the DP still solves it and
// dominates the beam, which floors itself at greedy + 2-opt.
func TestDPUnboundedBudget(t *testing.T) {
	p := dpReachProblem(16, math.Inf(1))
	dp, err := (&DP{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, p, dp)
	beam, err := (&Beam{}).Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Profit < beam.Profit-1e-9 {
		t.Fatalf("DP profit %v < beam profit %v at an unbounded budget", dp.Profit, beam.Profit)
	}
}
