package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); !got.Equal(Pt(4, -2)) {
		t.Errorf("Add = %v, want (4, -2)", got)
	}
	if got := p.Scale(2); !got.Equal(Pt(2, 4)) {
		t.Errorf("Scale = %v, want (2, 4)", got)
	}
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(5, 5), Pt(5, 5), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); got != tt.want {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPointDistSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); !got.Equal(p) {
		t.Errorf("Lerp(0) = %v, want %v", got, p)
	}
	if got := p.Lerp(q, 1); !got.Equal(q) {
		t.Errorf("Lerp(1) = %v, want %v", got, q)
	}
	if got := p.Lerp(q, 0.5); !got.Equal(Pt(5, 10)) {
		t.Errorf("Lerp(0.5) = %v, want (5, 10)", got)
	}
}

func TestPointToward(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 0)
	if got := p.Toward(q, 4); !got.Equal(Pt(4, 0)) {
		t.Errorf("Toward(4) = %v, want (4, 0)", got)
	}
	if got := p.Toward(q, 100); !got.Equal(q) {
		t.Errorf("Toward(100) = %v, want %v", got, q)
	}
	if got := p.Toward(q, 0); !got.Equal(p) {
		t.Errorf("Toward(0) = %v, want %v", got, p)
	}
	if got := p.Toward(p, 5); !got.Equal(p) {
		t.Errorf("Toward(self) = %v, want %v", got, p)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if Pt(math.NaN(), 0).IsFinite() {
		t.Error("NaN point reported finite")
	}
	if Pt(0, math.Inf(1)).IsFinite() {
		t.Error("Inf point reported finite")
	}
}

func TestPointString(t *testing.T) {
	if got := Pt(1, 2).String(); got != "(1.00, 2.00)" {
		t.Errorf("String = %q", got)
	}
}
