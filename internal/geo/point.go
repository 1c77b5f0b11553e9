// Package geo provides the planar geometry primitives used throughout the
// crowdsensing simulator: points, rectangles, polyline paths, and a uniform
// grid index for radius queries.
//
// All coordinates are in meters on a flat plane. The paper's evaluation area
// is a 3000 m x 3000 m square, small enough that a Euclidean plane is an
// accurate model; no geodesic math is needed.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the plane, in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns the vector sum p + q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp returns the point a fraction t of the way from p to q. t is not
// clamped; t=0 yields p and t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Equal reports whether p and q are exactly equal.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// IsFinite reports whether both coordinates are finite (not NaN or Inf).
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Toward returns the point reached by moving from p toward q by at most
// dist meters. If q is closer than dist, it returns q.
func (p Point) Toward(q Point, dist float64) Point {
	if dist <= 0 {
		return p
	}
	d := p.Dist(q)
	if d <= dist || d == 0 {
		return q
	}
	return p.Lerp(q, dist/d)
}
