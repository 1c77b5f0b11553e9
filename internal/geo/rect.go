package geo

import "fmt"

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// Square returns the axis-aligned square with lower-left corner at the
// origin and the given side length. The paper's evaluation area is
// Square(3000).
func Square(side float64) Rect {
	return Rect{Min: Point{}, Max: Point{X: side, Y: side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r in square meters.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the point in r nearest to p.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	} else if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	} else if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// Expand returns r grown outward by d on every side (shrunk for negative
// d). The result may be degenerate if d is negative enough; callers that
// care should check Valid.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{X: r.Min.X - d, Y: r.Min.Y - d},
		Max: Point{X: r.Max.X + d, Y: r.Max.Y + d},
	}
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if o.Min.X < r.Min.X {
		r.Min.X = o.Min.X
	}
	if o.Min.Y < r.Min.Y {
		r.Min.Y = o.Min.Y
	}
	if o.Max.X > r.Max.X {
		r.Max.X = o.Max.X
	}
	if o.Max.Y > r.Max.Y {
		r.Max.Y = o.Max.Y
	}
	return r
}

// Valid reports whether r is a well-formed rectangle (Min <= Max in both
// axes and all coordinates finite).
func (r Rect) Valid() bool {
	return r.Min.IsFinite() && r.Max.IsFinite() &&
		r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// String implements fmt.Stringer.
func (r Rect) String() string { return fmt.Sprintf("[%v - %v]", r.Min, r.Max) }
