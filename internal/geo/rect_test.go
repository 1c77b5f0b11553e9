package geo

import (
	"testing"
	"testing/quick"
)

func TestSquare(t *testing.T) {
	r := Square(3000)
	if r.Width() != 3000 || r.Height() != 3000 {
		t.Errorf("Square(3000) dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 9e6 {
		t.Errorf("Area = %v, want 9e6", r.Area())
	}
	if !r.Center().Equal(Pt(1500, 1500)) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := Square(10)
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 5), Pt(5, 10.1), Pt(11, 11)} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestRectClampProperty(t *testing.T) {
	r := Square(100)
	f := func(x, y float64) bool {
		c := r.Clamp(Pt(x, y))
		return r.Contains(c) || !Pt(x, y).IsFinite()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectClampIdempotentOnInterior(t *testing.T) {
	r := Square(10)
	p := Pt(3, 4)
	if got := r.Clamp(p); !got.Equal(p) {
		t.Errorf("Clamp interior = %v, want %v", got, p)
	}
}

func TestRectValid(t *testing.T) {
	if (Rect{Min: Pt(5, 5), Max: Pt(1, 1)}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if !Square(1).Valid() {
		t.Error("unit square reported invalid")
	}
}
