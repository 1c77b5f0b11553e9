package geo

import (
	"fmt"
	"math"
	"slices"
)

// GridIndex is a uniform-grid spatial index over points in a bounded area.
// It supports efficient radius queries, which the incentive mechanism uses
// every round to count the neighboring mobile users of each task (the users
// within R meters of the task location, Section IV of the paper).
//
// Storage is compressed sparse row: the points are kept sorted by cell
// (row-major), so the cells c0..c1 of one grid row are one contiguous run
// of pts, pts[start[row*cols+c0]:start[row*cols+c1+1]]. The sort is a
// stable counting sort, so within a cell the points keep their input
// order and a query visits points in exactly the order the historical
// bucket-per-cell layout did.
//
// The zero value is not usable; construct with NewGridIndex. GridIndex is
// not safe for concurrent mutation; concurrent read-only queries are safe.
type GridIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	start    []int   // cell -> offset of its run in pts; len cols*rows+1
	pts      []Point // the points, sorted by cell
	idx      []int   // pts[k] is the caller's point idx[k]
}

// NewGridIndex builds an index over the given points within bounds. cellSize
// is the side length of each grid cell in meters; about half the query
// radius is a good choice. Points outside bounds are clamped into it for bucketing purposes
// (queries remain exact because candidate distances are always re-checked).
func NewGridIndex(bounds Rect, cellSize float64, pts []Point) (*GridIndex, error) {
	g := &GridIndex{}
	if err := g.Reset(bounds, cellSize, pts); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset rebuilds the index in place over a new point set, reusing the
// previous build's storage (the cell offsets, the sorted point copy and
// its index map) when it is large enough. After the first few builds over
// same-sized inputs a Reset allocates nothing, which is what lets the
// platform engine rebuild its open-task reach index every round, and its
// neighbor index whenever it recounts every task, without garbage.
// The points are copied; the caller may reuse its slice. Query results are
// identical to a fresh NewGridIndex over the same inputs.
func (g *GridIndex) Reset(bounds Rect, cellSize float64, pts []Point) error {
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return fmt.Errorf("geo: invalid bounds %v", bounds)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return fmt.Errorf("geo: invalid cell size %v", cellSize)
	}
	g.bounds = bounds
	g.cellSize = cellSize
	g.cols = int(math.Ceil(bounds.Width()/cellSize)) + 1
	g.rows = int(math.Ceil(bounds.Height()/cellSize)) + 1
	cells := g.cols * g.rows
	n := len(pts)
	g.start = resize(g.start, cells+1)
	g.pts = resize(g.pts, n)
	g.idx = resize(g.idx, n)
	clear(g.start)
	// Counting sort: count each cell into start[c+1], prefix-sum so start[c]
	// is cell c's offset, place each point at its cell's cursor (advancing
	// start[c] to the cell's end), then shift back by one cell. The cell
	// is computed twice rather than kept, which saves a scratch slice.
	for _, p := range pts {
		g.start[g.cellOf(p)+1]++
	}
	for c := 1; c <= cells; c++ {
		g.start[c] += g.start[c-1]
	}
	for i, p := range pts {
		c := g.cellOf(p)
		k := g.start[c]
		g.pts[k] = p
		g.idx[k] = i
		g.start[c] = k + 1
	}
	copy(g.start[1:], g.start[:cells])
	g.start[0] = 0
	return nil
}

// resize returns s resized to n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.pts) }

// cellOf maps a point to its cell slot, clamping out-of-bounds points.
func (g *GridIndex) cellOf(p Point) int {
	return g.row(p.Y)*g.cols + g.col(p.X)
}

// col and row map a coordinate to its clamped grid column or row: the
// coordinate is clamped into the bounds, so a point outside them lands in
// an edge cell. Both are monotone non-decreasing in the coordinate, which
// is what makes Cells exact: every point whose coordinates lie inside a
// query box is bucketed in a cell of the box's span, whatever the
// rounding of the box's corners. A NaN coordinate maps to 0.
func (g *GridIndex) col(x float64) int {
	return axisCell(x, g.bounds.Min.X, g.bounds.Max.X, g.cellSize, g.cols)
}

func (g *GridIndex) row(y float64) int {
	return axisCell(y, g.bounds.Min.Y, g.bounds.Max.Y, g.cellSize, g.rows)
}

func axisCell(v, lo, hi, size float64, n int) int {
	if v > hi {
		v = hi
	}
	c := (v - lo) / size
	switch {
	case !(c > 0): // below lo, or NaN
		return 0
	case c >= float64(n-1):
		return n - 1
	}
	return int(c)
}

// Cells returns the span of grid cells a query box touches, clamped to
// the grid: columns c0..c1 and rows r0..r1. Every indexed point whose
// coordinates lie within box (inclusive) is bucketed in that span. Use
// Run to read the points of one row of the span.
func (g *GridIndex) Cells(box Rect) (c0, c1, r0, r1 int) {
	return g.col(box.Min.X), g.col(box.Max.X), g.row(box.Min.Y), g.row(box.Max.Y)
}

// Run returns the points bucketed in cells c0..c1 of one grid row, in
// scan order (cell by cell, input order within a cell), and each point's
// index into the slice the index was built over; both are empty when
// c1 < c0. The slices alias the index's storage: read them before the
// next Reset and do not modify them.
func (g *GridIndex) Run(row, c0, c1 int) ([]Point, []int) {
	if c1 < c0 {
		return nil, nil
	}
	lo, hi := g.start[row*g.cols+c0], g.start[row*g.cols+c1+1]
	return g.pts[lo:hi], g.idx[lo:hi]
}

// band returns the squared-distance band of a query of radius r around
// center: a point whose dx*dx+dy*dy lies below lo is within r, one above
// hi is not, and only points inside [lo, hi] need the exact test
// math.Hypot(dx, dy) < r — p.Dist(center) < r, the paper's strict
// neighbor test, with which the result must agree bit for bit.
//
// When r and center are in a sane range the band is narrow: dx*dx+dy*dy
// is within a few ulps of the exact squared distance and Hypot within one
// or two ulps of the exact distance, so r²(1−1e-9) and r²(1+1e-9) decide
// by a margin of about 1e-9 relative against errors of about 1e-15. The
// bounds on r keep r² and the band normal floats, so an underflowing
// dx*dx (a point far inside the disk) or an overflowing one (a point far
// outside it) still lands on the right side. A NaN squared distance is
// in neither range and falls through to the exact test. Outside the sane
// range the band is everything and every point takes the exact test.
func band(center Point, r float64) (lo, hi float64) {
	if r > 1e-100 && r < 1e100 && center.IsFinite() {
		return r * r * (1 - 1e-9), r * r * (1 + 1e-9)
	}
	return -1, math.Inf(1)
}

// span returns the cells a disk of radius r around center touches. A
// point with Dist(center) < r has |dx| < r in floats (Hypot is at least
// the larger magnitude), hence lies within [center.X-r, center.X+r] after
// rounding those corners to nearest; the monotone cell mapping then puts
// it inside the span.
func (g *GridIndex) span(center Point, r float64) (c0, c1, r0, r1 int) {
	return g.Cells(Rect{Min: Pt(center.X-r, center.Y-r), Max: Pt(center.X+r, center.Y+r)})
}

// CountWithin returns the number of indexed points strictly within radius r
// of center. The paper defines a neighboring user as one whose distance to a
// task is less than R, hence the strict inequality.
func (g *GridIndex) CountWithin(center Point, r float64) int {
	lo, hi := band(center, r)
	c0, c1, r0, r1 := g.span(center, r)
	count := 0
	for row := r0; row <= r1; row++ {
		pts, _ := g.Run(row, c0, c1)
		for _, p := range pts {
			dx, dy := p.X-center.X, p.Y-center.Y
			count += b2i(within(dx, dy, float64(dx*dx)+float64(dy*dy), r, lo, hi))
		}
	}
	return count
}

// within is the pair predicate of every radius query: whether a point at
// offset (dx, dy) from the query's center, d2 =
// float64(dx*dx)+float64(dy*dy), lies strictly within r, given the
// query's band (see band). CountWithin and WithinInto both decide each
// pair with it, so they agree bit for bit. The conversions in d2 round
// each square, so no architecture fuses the sum into a multiply-add.
//
// About half the pairs a query scans lie inside the disk, so a branch on
// the answer would be mispredicted on every other pair. The answer is
// data instead: the two comparisons become flags, and the one branch is
// on whether they are equal. For lo <= hi at most one of d2 < lo and
// d2 > hi holds; they are equal, both false, exactly when d2 lies in
// [lo, hi] or is NaN, which a sane query's pairs almost never do (the
// band is about 2e-9 of r² wide), so the branch is predicted. Outside
// that the answer is the flag d2 < lo. So every pair is decided as by
// the branchy d2 < lo || !(d2 > hi) && math.Hypot(dx, dy) < r: below lo
// in, above hi out, and in the band or NaN the exact test. Outside the
// sane range the band is [-1, +Inf], and every pair takes the exact test.
//
// It takes d2 from the caller, and keeps the exact test out of line in
// withinExact, because either inside it would put the function past the
// inlining budget (math.Hypot alone takes most of it), and a call per
// point would cost a query about three times its scan;
// `go build -gcflags=-m ./internal/geo` must report "can inline within".
//
// It is symmetric in the pair: swapping the two points negates dx and dy
// exactly (fl(a-b) = -fl(b-a) under round to nearest), which changes
// neither d2 nor Hypot, and the band depends on the center only through
// whether it is finite. So for two finite points a query around either
// one decides the pair alike.
func within(dx, dy, d2, r, lo, hi float64) bool {
	if (d2 < lo) == (d2 > hi) {
		return withinExact(dx, dy, r)
	}
	return d2 < lo
}

// withinExact is the paper's strict neighbor test, Dist < r, for the
// pairs within's band cannot decide: a few in a billion in a sane query,
// every pair outside the sane range.
//
//go:noinline
func withinExact(dx, dy, r float64) bool { return math.Hypot(dx, dy) < r }

// b2i is 1 for true and 0 for false. The compiler turns it into a flag
// move (SETcc on amd64, CSET on arm64), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WithinInto returns the indices (into the original point slice) of all
// points strictly within radius r of center, in unspecified order,
// appending into dst (reset to dst[:0] first) and following the repo's
// grow-only `...Into` convention: callers on hot paths pass the previous
// query's slice back in and reach zero steady-state allocations once the
// buffer has grown to the largest result set plus one cell run. It
// decides every pair as CountWithin does, so a caller that keeps counts
// up to date from its results agrees with a recount.
//
// The capacity is grown once per cell run, so every scanned index can be
// stored; the cursor then moves on by within's 0 or 1, and the next
// index overwrites a rejected one. The result is in scan order.
func (g *GridIndex) WithinInto(dst []int, center Point, r float64) []int {
	dst = dst[:0]
	lo, hi := band(center, r)
	c0, c1, r0, r1 := g.span(center, r)
	for row := r0; row <= r1; row++ {
		pts, idx := g.Run(row, c0, c1)
		n := len(dst)
		dst = slices.Grow(dst, len(pts))[:n+len(pts)]
		idx = idx[:len(pts)]
		for k, p := range pts {
			dx, dy := p.X-center.X, p.Y-center.Y
			dst[n] = idx[k]
			n += b2i(within(dx, dy, float64(dx*dx)+float64(dy*dy), r, lo, hi))
		}
		dst = dst[:n]
	}
	return dst
}

// CountWithinBrute is the O(n) reference implementation of CountWithin, used
// by tests and available for tiny inputs where building an index would cost
// more than it saves.
func CountWithinBrute(pts []Point, center Point, r float64) int {
	count := 0
	for _, p := range pts {
		if p.Dist(center) < r {
			count++
		}
	}
	return count
}
