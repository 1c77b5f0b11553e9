package experiments

import (
	"paydemand/internal/ahp"
	"paydemand/internal/demand"
)

// tableI reproduces the paper's Table I: the example pairwise comparison
// matrix over the three demand criteria. The "series" are the matrix rows.
func tableI(Options) ([]Figure, error) {
	return []Figure{matrixFigure("table1",
		"Pairwise comparison matrix A over the demand criteria", ahp.PaperExampleMatrix().Rows())}, nil
}

// tableII reproduces Table II: the column-normalized matrix and, as an
// extra series, the derived weight vector W = (0.648, 0.230, 0.122).
func tableII(Options) ([]Figure, error) {
	pm := ahp.PaperExampleMatrix()
	f := matrixFigure("table2",
		"Column-normalized comparison matrix and derived weights", pm.Normalized())
	w := pm.PaperWeights()
	f.Series = append(f.Series, Series{
		Name: "W (row mean)",
		X:    []float64{1, 2, 3},
		Y:    w[:],
	})
	cons, err := pm.Consistency()
	if err != nil {
		return nil, err
	}
	f.Notes = "Paper: W = (0.648, 0.230, 0.122). Consistency ratio computed additionally: " +
		formatNum(cons.Ratio)
	return []Figure{f}, nil
}

// matrixFigure renders a 3×3 matrix as one series per row.
func matrixFigure(id, title string, m [3][3]float64) Figure {
	f := Figure{
		ID:     id,
		Title:  title,
		XLabel: "criterion (column)",
		YLabel: "judgment",
	}
	names := [3]string{"C1 (deadline)", "C2 (progress)", "C3 (neighbors)"}
	for i := range m {
		f.Series = append(f.Series, Series{Name: names[i], X: []float64{1, 2, 3}, Y: m[i][:]})
	}
	return f
}

// tableIII reproduces Table III: the demand-level intervals for N = 5.
func tableIII(Options) ([]Figure, error) {
	m := demand.LevelMapper{N: demand.DefaultLevels}
	f := Figure{
		ID:     "table3",
		Title:  "Demand levels (N = 5)",
		XLabel: "level",
		YLabel: "normalized demand bounds",
	}
	var lows, highs, levels []float64
	for lvl := 1; lvl <= m.N; lvl++ {
		lo, hi := m.Bounds(lvl)
		levels = append(levels, float64(lvl))
		lows = append(lows, lo)
		highs = append(highs, hi)
	}
	f.Series = []Series{
		{Name: "lower bound", X: levels, Y: lows},
		{Name: "upper bound", X: levels, Y: highs},
	}
	return []Figure{f}, nil
}
