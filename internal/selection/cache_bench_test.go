package selection

import (
	"fmt"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// benchSolverProblem builds an m-candidate instance in a 1 km square with a
// budget generous enough that every candidate survives reachability
// filtering, so each solver faces the full instance size it is labeled
// with. The seed fixes the instance, making runs comparable.
func benchSolverProblem(m int) Problem {
	rng := stats.NewRNG(int64(7000 + m))
	p := Problem{
		Start:        geo.Pt(500, 500),
		MaxDistance:  5000,
		CostPerMeter: 0.002,
	}
	for i := 0; i < m; i++ {
		p.Candidates = append(p.Candidates, Candidate{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)),
			Reward:   rng.Uniform(0.5, 3),
		})
	}
	return p
}

// BenchmarkSelect measures each solver at the instance sizes the paper's
// evaluation exercises (m up to the DP cap). Every solver reuses
// per-solver scratch between calls, so allocs/op stays at the returned
// Plan's two slices.
func BenchmarkSelect(b *testing.B) {
	algs := []Algorithm{&DP{}, &Greedy{}, &TwoOptGreedy{}}
	for _, alg := range algs {
		for _, m := range []int{5, 10, 15, 20} {
			p := benchSolverProblem(m)
			b.Run(fmt.Sprintf("%s/m=%d", alg.Name(), m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Select(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
