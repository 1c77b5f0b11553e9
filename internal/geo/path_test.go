package geo

import "testing"

func TestPathLength(t *testing.T) {
	tests := []struct {
		name string
		path Path
		want float64
	}{
		{"empty", nil, 0},
		{"single", Path{Pt(1, 1)}, 0},
		{"straight", Path{Pt(0, 0), Pt(3, 4)}, 5},
		{"two segments", Path{Pt(0, 0), Pt(3, 4), Pt(3, 10)}, 11},
		{"backtrack", Path{Pt(0, 0), Pt(10, 0), Pt(0, 0)}, 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.path.Length(); got != tt.want {
				t.Errorf("Length = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPathEnd(t *testing.T) {
	if _, ok := (Path{}).End(); ok {
		t.Error("empty path reported an end")
	}
	p := Path{Pt(0, 0), Pt(1, 1)}
	end, ok := p.End()
	if !ok || !end.Equal(Pt(1, 1)) {
		t.Errorf("End = %v, %v", end, ok)
	}
}
