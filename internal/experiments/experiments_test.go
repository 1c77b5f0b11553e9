package experiments

import (
	"slices"
	"strings"
	"testing"
)

// quickOpts keeps experiment tests fast: 2 trials, tiny sweep.
func quickOpts() Options {
	return Options{
		Trials:      2,
		Seed:        1,
		UserSweep:   []int{40, 80},
		SeriesUsers: 40,
		Rounds:      15,
	}
}

func TestIDsComplete(t *testing.T) {
	wantPaper := []string{
		"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig9a", "fig9b", "table1", "table2", "table3",
	}
	all := IDs()
	for _, id := range wantPaper {
		if !slices.Contains(all, id) {
			t.Errorf("paper figure %q not registered", id)
		}
	}
	// The full registry adds the ablations and extensions.
	if len(all) != len(wantPaper)+9 {
		t.Errorf("IDs = %v", all)
	}
}

func TestTables(t *testing.T) {
	t1, err := Run("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Series) != 3 || t1.Series[0].Y[1] != 3 || t1.Series[0].Y[2] != 5 {
		t.Errorf("table1 = %+v", t1.Series)
	}
	t2, err := Run("table2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Last series is the weight vector.
	w := t2.Series[len(t2.Series)-1].Y
	if len(w) != 3 || w[0] < 0.64 || w[0] > 0.66 {
		t.Errorf("table2 weights = %v", w)
	}
	t3, err := Run("table3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Series) != 2 || t3.Series[1].Y[0] != 0.2 || t3.Series[1].Y[4] != 1.0 {
		t.Errorf("table3 = %+v", t3.Series)
	}
}

func TestAblationRunners(t *testing.T) {
	opts := quickOpts()
	opts.UserSweep = []int{40}
	opts.Trials = 1
	for _, id := range []string{"ablation-weights", "ablation-levels", "ablation-budget", "ablation-churn", "ablation-mobility", "ablation-sensing"} {
		f, err := Run(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(f.Series) < 2 {
			t.Errorf("%s: only %d series", id, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Y) != 1 {
				t.Errorf("%s %s: %d points", id, s.Name, len(s.Y))
			}
			if s.Y[0] < 0 || s.Y[0] > 100 {
				t.Errorf("%s %s: completeness %v out of range", id, s.Name, s.Y[0])
			}
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("fig99", quickOpts()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestTrialSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for c := 0; c < 20; c++ {
		for tr := 0; tr < 20; tr++ {
			s := trialSeed(1, c, tr)
			if s < 0 {
				t.Fatalf("negative seed %d", s)
			}
			if seen[s] {
				t.Fatalf("seed collision at config %d trial %d", c, tr)
			}
			seen[s] = true
		}
	}
	if trialSeed(1, 3, 4) != trialSeed(1, 3, 4) {
		t.Error("trialSeed not deterministic")
	}
}

func TestFig5aShape(t *testing.T) {
	f, err := Run("fig5a", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 || f.Series[0].Name != "dp" || f.Series[1].Name != "greedy" {
		t.Fatalf("series = %+v", f.Series)
	}
	// DP must dominate greedy pointwise.
	for i := range f.Series[0].Y {
		if f.Series[0].Y[i] < f.Series[1].Y[i]-1e-9 {
			t.Errorf("users=%v: dp %v < greedy %v", f.Series[0].X[i], f.Series[0].Y[i], f.Series[1].Y[i])
		}
	}
}

func TestFig5bBoxplot(t *testing.T) {
	f, err := Run("fig5b", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Boxplots) != 1 {
		t.Fatalf("boxplots = %d", len(f.Boxplots))
	}
	b := f.Boxplots[0]
	if b.N == 0 {
		t.Fatal("no profit differences collected")
	}
	if b.Min < 0 {
		t.Errorf("negative dp-greedy difference %v", b.Min)
	}
}

func TestComparisonFiguresHaveThreeMechanisms(t *testing.T) {
	for _, id := range []string{"fig6a", "fig7a", "fig8a", "fig9a", "fig9b"} {
		f, err := Run(id, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(f.Series) != 3 {
			t.Fatalf("%s: %d series", id, len(f.Series))
		}
		names := map[string]bool{}
		for _, s := range f.Series {
			names[s.Name] = true
			if len(s.X) != 2 || len(s.Y) != 2 {
				t.Errorf("%s %s: series length %d/%d", id, s.Name, len(s.X), len(s.Y))
			}
		}
		if !names["on-demand"] || !names["fixed"] || !names["steered"] {
			t.Errorf("%s: mechanisms %v", id, names)
		}
	}
}

func TestRoundSeriesFigures(t *testing.T) {
	for _, id := range []string{"fig6b", "fig7b", "fig8b"} {
		f, err := Run(id, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, s := range f.Series {
			if len(s.X) != 15 {
				t.Errorf("%s %s: %d rounds, want 15", id, s.Name, len(s.X))
			}
		}
	}
}

func TestFig6aShapeOnDemandBeatsFixed(t *testing.T) {
	opts := quickOpts()
	opts.Trials = 5
	f, err := Run("fig6a", opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Series{}
	for _, s := range f.Series {
		byName[s.Name] = s
	}
	for i := range byName["on-demand"].Y {
		if byName["on-demand"].Y[i] < byName["fixed"].Y[i]-1e-9 {
			t.Errorf("coverage: on-demand %v < fixed %v at %v users",
				byName["on-demand"].Y[i], byName["fixed"].Y[i], byName["on-demand"].X[i])
		}
	}
}

func TestRenderTable(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4.5}}},
		Notes:  "caveat",
	}
	var sb strings.Builder
	if err := RenderTable(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figX", "caveat", "a", "4.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTableEmpty(t *testing.T) {
	var sb strings.Builder
	if err := RenderTable(&sb, Figure{ID: "fig0", Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty figure output: %q", sb.String())
	}
}

func TestRenderPlot(t *testing.T) {
	f := Figure{
		ID: "figX", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
	}
	var sb strings.Builder
	if err := RenderPlot(&sb, f, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "o=up") || !strings.Contains(out, "x=down") {
		t.Errorf("plot legend missing:\n%s", out)
	}
	if strings.Count(out, "\n") < 10 {
		t.Errorf("plot too short:\n%s", out)
	}
}

func TestRenderPlotDegenerate(t *testing.T) {
	var sb strings.Builder
	// Empty series, tiny dimensions, and constant data must not panic.
	if err := RenderPlot(&sb, Figure{}, 40, 10); err != nil {
		t.Fatal(err)
	}
	if err := RenderPlot(&sb, Figure{Series: []Series{{Name: "c", X: []float64{1}, Y: []float64{5}}}}, 40, 10); err != nil {
		t.Fatal(err)
	}
	if err := RenderPlot(&sb, Figure{Series: []Series{{Name: "c", X: []float64{1, 2}, Y: []float64{5, 5}}}}, 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRenderCSV(t *testing.T) {
	f := Figure{
		ID: "fig1",
		Series: []Series{
			{Name: "s", X: []float64{1}, Y: []float64{2}},
		},
	}
	var sb strings.Builder
	if err := RenderCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "figure,series,x,y\n") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if !strings.Contains(out, "fig1,s,1,2") {
		t.Errorf("CSV row missing: %q", out)
	}
}

func TestRenderCSVBoxplot(t *testing.T) {
	f, err := Run("fig5b", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dp - greedy.median") {
		t.Errorf("boxplot CSV missing median row:\n%s", sb.String())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 100 {
		t.Errorf("Trials = %d", o.Trials)
	}
	if len(o.UserSweep) != 6 || o.UserSweep[0] != 40 || o.UserSweep[5] != 140 {
		t.Errorf("UserSweep = %v", o.UserSweep)
	}
	if o.SeriesUsers != 100 || o.Rounds != 15 {
		t.Errorf("SeriesUsers = %d, Rounds = %d", o.SeriesUsers, o.Rounds)
	}
}
