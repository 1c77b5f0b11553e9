package geo

import (
	"math/rand"
	"testing"
)

// BenchmarkGridCountWithin measures one full neighbor-count pass at the
// benchmark's city size: 1000 task-centered queries of radius R = 500 m
// over 2000 users in a 3 km square, on a grid with cell side R/2 (the
// engine's choice) and, for comparison, R. The index is built once.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, t := range tasks {
					n += g.CountWithin(t, r)
				}
				sinkInt = n
			}
		})
	}
}

var sinkInt int
