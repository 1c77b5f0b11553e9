package geo

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkGridCountWithin measures one full neighbor-count pass at the
// benchmark's city size: 1000 task-centered queries of radius R = 500 m
// over 2000 users in a 3 km square, on a grid with cell side R/2 (the
// engine's choice) and, for comparison, R. The index is built once. It
// reports ns/pair, the time per point scanned.
func BenchmarkGridCountWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bounds := Square(3000)
	users := randomPoints(rng, 2000, bounds)
	tasks := randomPoints(rng, 1000, bounds)
	const r = 500.0
	for _, tc := range []struct {
		name string
		cell float64
	}{{"cell=R/2", r / 2}, {"cell=R", r}} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := NewGridIndex(bounds, tc.cell, users)
			if err != nil {
				b.Fatal(err)
			}
			pairs := scanned(g, tasks, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, t := range tasks {
					n += g.CountWithin(t, r)
				}
				sinkInt = n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
}

// BenchmarkGridWithinInto measures the moved-user query of the engine's
// incremental neighbor update at the benchmark's city size: 1000 tasks
// in a 3 km square indexed with cells of side 3000/⌈√1000⌉ m, as the
// engine's reach index is, and one query of radius R = 500 m around each
// of 2000 users into a reused buffer. It reports ns/pair, the time per
// point scanned in the cells under the queries' boxes.
func BenchmarkGridWithinInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bounds := Square(3000)
	users := randomPoints(rng, 2000, bounds)
	tasks := randomPoints(rng, 1000, bounds)
	const r = 500.0
	g, err := NewGridIndex(bounds, 3000/math.Ceil(math.Sqrt(1000)), tasks)
	if err != nil {
		b.Fatal(err)
	}
	pairs := scanned(g, users, r)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, u := range users {
			buf = g.WithinInto(buf, u, r)
			n += len(buf)
		}
		sinkInt = n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}

// scanned returns the number of points the queries of radius r around
// centers scan: those in the cells under each query's box.
func scanned(g *GridIndex, centers []Point, r float64) int {
	n := 0
	for _, c := range centers {
		c0, c1, r0, r1 := g.span(c, r)
		for row := r0; row <= r1; row++ {
			pts, _ := g.Run(row, c0, c1)
			n += len(pts)
		}
	}
	return n
}

var sinkInt int
