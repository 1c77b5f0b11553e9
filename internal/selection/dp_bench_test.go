package selection

import (
	"fmt"
	"math"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// dpReachProblem builds an m-candidate instance in a 1000 m square around
// a central user with the given travel budget. Every candidate is within
// direct reach of any budget of at least ~710 m, so the filtered size is m
// and only the budget decides how many subsets are feasible.
func dpReachProblem(m int, budget float64) Problem {
	rng := stats.NewRNG(int64(1500 + m))
	p := Problem{
		Start:        geo.Pt(500, 500),
		MaxDistance:  budget,
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

// BenchmarkDPReach measures the exact solver at m = 16 across travel
// budgets, from one where few subsets fit to an unbounded one where every
// subset does. The solver's time and retained memory scale with the
// number of budget-feasible subsets, so this grid spans its whole range.
func BenchmarkDPReach(b *testing.B) {
	const m = 16
	for _, budget := range []float64{300, 600, 1200, 3000, math.Inf(1)} {
		p := dpReachProblem(m, budget)
		b.Run(fmt.Sprintf("m=%d/budget=%v", m, budget), func(b *testing.B) {
			var dp DP
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dp.Select(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
