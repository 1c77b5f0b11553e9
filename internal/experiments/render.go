package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// RenderTable writes the figure's series as an aligned ASCII table: one row
// per X value, one column per series.
func RenderTable(w io.Writer, f Figure) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	if f.Notes != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", f.Notes); err != nil {
			return err
		}
	}
	if len(f.Boxplots) > 0 {
		return renderBoxplots(w, f)
	}
	if len(f.Series) == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i := range f.Series[0].X {
		row := []string{formatNum(f.Series[0].X[i])}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, formatNum(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return writeAligned(w, rows)
}

// renderBoxplots writes five-number summaries.
func renderBoxplots(w io.Writer, f Figure) error {
	rows := [][]string{{"boxplot", "n", "min", "q1", "median", "q3", "max", "whisk-lo", "whisk-hi", "outliers"}}
	for i, b := range f.Boxplots {
		rows = append(rows, []string{
			boxLabel(f, i),
			strconv.Itoa(b.N),
			formatNum(b.Min), formatNum(b.Q1), formatNum(b.Median),
			formatNum(b.Q3), formatNum(b.Max),
			formatNum(b.WhiskerLo), formatNum(b.WhiskerHi),
			strconv.Itoa(len(b.Outliers)),
		})
	}
	return writeAligned(w, rows)
}

// boxLabel names the i-th boxplot, "box-<i+1>" where BoxLabels has none.
func boxLabel(f Figure, i int) string {
	if i < len(f.BoxLabels) {
		return f.BoxLabels[i]
	}
	return fmt.Sprintf("box-%d", i+1)
}

// RenderPlot writes a crude ASCII line plot of the figure's series, good
// enough to eyeball the shapes the paper reports.
func RenderPlot(w io.Writer, f Figure, width, height int) error {
	if len(f.Series) == 0 || width < 16 || height < 4 {
		return nil
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX || minY > maxY {
		return nil
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte{'o', 'x', '+', '*', '#', '@'}
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			col := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = mark
		}
	}
	if _, err := fmt.Fprintf(w, "%s (y: %s .. %s)\n", f.YLabel, formatNum(minY), formatNum(maxY)); err != nil {
		return err
	}
	for _, line := range grid {
		if _, err := fmt.Fprintf(w, "| %s\n", line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "+-%s\n", strings.Repeat("-", width)); err != nil {
		return err
	}
	legend := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	_, err := fmt.Fprintf(w, "  x: %s (%s .. %s)   %s\n",
		f.XLabel, formatNum(minX), formatNum(maxX), strings.Join(legend, "  "))
	return err
}

// RenderCSV writes the figure's series in long form:
// figure,series,x,y per row.
func RenderCSV(w io.Writer, f Figure) error {
	if _, err := fmt.Fprintln(w, "figure,series,x,y"); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%s,%v,%v\n", f.ID, s.Name, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	for i, b := range f.Boxplots {
		label := boxLabel(f, i)
		stats := []struct {
			k string
			v float64
		}{
			{"min", b.Min}, {"q1", b.Q1}, {"median", b.Median},
			{"q3", b.Q3}, {"max", b.Max},
			{"whisker_lo", b.WhiskerLo}, {"whisker_hi", b.WhiskerHi},
			{"n", float64(b.N)},
		}
		for _, st := range stats {
			if _, err := fmt.Fprintf(w, "%s,%s.%s,0,%v\n", f.ID, label, st.k, st.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatNum trims floats to a compact fixed precision.
func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// writeAligned writes rows with columns padded to equal width.
func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, cell := range row {
			parts[i] = fmt.Sprintf("%*s", widths[i], cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, "  ")); err != nil {
			return err
		}
	}
	return nil
}
