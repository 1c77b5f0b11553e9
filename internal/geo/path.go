package geo

// Path is an ordered polyline of waypoints. In the simulator a user's round
// plan is a Path starting at the user's location and visiting the selected
// task locations in performing order.
type Path []Point

// Length returns the total Euclidean length of the path, i.e. the sum of
// the segment lengths. Paths with fewer than two points have length 0.
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p); i++ {
		total += p[i-1].Dist(p[i])
	}
	return total
}

// End returns the final waypoint, or ok=false for an empty path.
func (p Path) End() (pt Point, ok bool) {
	if len(p) == 0 {
		return Point{}, false
	}
	return p[len(p)-1], true
}
