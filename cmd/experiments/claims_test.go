package main

import (
	"bufio"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenTable is one population-sweep table of the committed paper
// golden: the x values and one series per column, and each printed row
// as its fields in column order.
type goldenTable struct {
	x      []float64
	series map[string][]float64
	rows   [][]string
}

// readGoldenTables parses every "== id: title ==" section's table out of
// an experiments -all output: the header line names the columns, and
// each following row of numbers is one x value and one value per column.
func readGoldenTables(t *testing.T, path string) map[string]goldenTable {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := make(map[string]goldenTable)
	var id string
	var cols []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			cols = nil
			continue
		}
		if id == "" || strings.HasPrefix(line, "note:") {
			continue
		}
		fields := strings.Fields(line)
		if cols == nil {
			cols = fields
			continue
		}
		if len(fields) < 2 {
			id = ""
			continue
		}
		vals := make([]float64, len(fields))
		for i, s := range fields {
			if vals[i], err = strconv.ParseFloat(s, 64); err != nil {
				break
			}
		}
		if err != nil || len(cols) < len(vals)-1 {
			id = "" // past the table: a plot line or a box-plot row
			continue
		}
		tab, ok := tables[id]
		if !ok {
			tab = goldenTable{series: make(map[string][]float64)}
		}
		tab.x = append(tab.x, vals[0])
		tab.rows = append(tab.rows, fields)
		names := cols[len(cols)-(len(vals)-1):]
		for i, name := range names {
			tab.series[name] = append(tab.series[name], vals[i+1])
		}
		tables[id] = tab
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestPaperClaimsHoldInGolden checks the qualitative claims EXPERIMENTS.md
// marks as reproduced against the committed 100-trial golden
// (testdata/all-trials100-seed1.txt), so a golden update that flips one
// fails here rather than leaving the write-up wrong.
func TestPaperClaimsHoldInGolden(t *testing.T) {
	tables := readGoldenTables(t, filepath.Join("testdata", "all-trials100-seed1.txt"))
	table := func(id string, cols ...string) goldenTable {
		t.Helper()
		tab, ok := tables[id]
		if !ok || len(tab.x) == 0 {
			t.Fatalf("%s: no table in the golden", id)
		}
		for _, c := range cols {
			if len(tab.series[c]) != len(tab.x) {
				t.Fatalf("%s: column %q has %d values for %d rows", id, c, len(tab.series[c]), len(tab.x))
			}
		}
		return tab
	}

	fig5a := table("fig5a", "dp", "greedy")
	for i, x := range fig5a.x {
		if dp, gr := fig5a.series["dp"][i], fig5a.series["greedy"][i]; dp < gr {
			t.Errorf("fig5a at %v users: dp %v < greedy %v", x, dp, gr)
		}
	}

	fig6a := table("fig6a", "on-demand", "fixed", "steered")
	fixed := fig6a.series["fixed"]
	for i := 1; i < len(fixed); i++ {
		if fixed[i] <= fixed[i-1] {
			t.Errorf("fig6a: fixed coverage %v at %v users does not rise from %v", fixed[i], fig6a.x[i], fixed[i-1])
		}
	}
	last := len(fig6a.x) - 1
	if fig6a.x[last] != 140 {
		t.Fatalf("fig6a: last population %v, want 140", fig6a.x[last])
	}
	if fixed[last] >= 100 {
		t.Errorf("fig6a: fixed reaches %v%% coverage at 140 users", fixed[last])
	}
	for _, c := range []string{"on-demand", "steered"} {
		if v := fig6a.series[c][last]; v != 100 {
			t.Errorf("fig6a: %s coverage %v at 140 users, want 100", c, v)
		}
	}

	// Fig. 6(b): on-demand is at 100% from round 5 and steered from round
	// 2; fixed plateaus below 100, at 97.55% from round 3 on.
	fig6b := table("fig6b", "on-demand", "fixed", "steered")
	for i, round := range fig6b.x {
		for _, c := range []struct {
			col  string
			from float64
			want float64
		}{{"on-demand", 5, 100}, {"steered", 2, 100}, {"fixed", 3, 97.55}} {
			if v := fig6b.series[c.col][i]; round >= c.from && v != c.want {
				t.Errorf("fig6b round %v: %s coverage %v, want %v from round %v", round, c.col, v, c.want, c.from)
			}
		}
	}
	if fig6b.x[len(fig6b.x)-1] != 15 {
		t.Errorf("fig6b: last round %v, want 15", fig6b.x[len(fig6b.x)-1])
	}

	// Fig. 8(b): steered collects the most in round 1; from round 5 on,
	// fixed and steered collect nothing while on-demand keeps collecting
	// through round 15.
	fig8b := table("fig8b", "on-demand", "fixed", "steered")
	if st := fig8b.series["steered"][0]; fig8b.x[0] != 1 || st <= fig8b.series["on-demand"][0] || st <= fig8b.series["fixed"][0] {
		t.Errorf("fig8b round %v: steered %v not the highest (on-demand %v, fixed %v)",
			fig8b.x[0], st, fig8b.series["on-demand"][0], fig8b.series["fixed"][0])
	}
	for i, round := range fig8b.x {
		if round < 5 {
			continue
		}
		if od, fx, st := fig8b.series["on-demand"][i], fig8b.series["fixed"][i], fig8b.series["steered"][i]; fx != 0 || st != 0 || od <= 0 {
			t.Errorf("fig8b round %v: on-demand %v, fixed %v, steered %v; want fixed and steered 0, on-demand above 0", round, od, fx, st)
		}
	}
	if fig8b.x[len(fig8b.x)-1] != 15 {
		t.Errorf("fig8b: last round %v, want 15", fig8b.x[len(fig8b.x)-1])
	}

	// Fig. 9(a): fixed's variance rises to a peak at 60 users and
	// steered's at 80, then both fall; on-demand's falls throughout and
	// is the lowest from 60 users on.
	fig9a := table("fig9a", "on-demand", "fixed", "steered")
	for _, c := range []struct {
		col  string
		peak float64
	}{{"fixed", 60}, {"steered", 80}} {
		v := fig9a.series[c.col]
		for i := 1; i < len(v); i++ {
			rising := fig9a.x[i] <= c.peak
			if rising && v[i] <= v[i-1] || !rising && v[i] >= v[i-1] {
				t.Errorf("fig9a: %s variance %v at %v users after %v; want a rise to %v users, then a fall",
					c.col, v[i], fig9a.x[i], v[i-1], c.peak)
			}
		}
	}
	od9 := fig9a.series["on-demand"]
	for i, x := range fig9a.x {
		if i > 0 && od9[i] >= od9[i-1] {
			t.Errorf("fig9a: on-demand variance %v at %v users does not fall from %v", od9[i], x, od9[i-1])
		}
		for _, c := range []string{"fixed", "steered"} {
			if v := fig9a.series[c][i]; x >= 60 && od9[i] >= v {
				t.Errorf("fig9a at %v users: on-demand %v not below %s %v", x, od9[i], c, v)
			}
		}
	}

	for _, id := range []string{"fig7a", "fig8a"} {
		tab := table(id, "on-demand", "fixed", "steered")
		for i, x := range tab.x {
			od := tab.series["on-demand"][i]
			for _, c := range []string{"fixed", "steered"} {
				if v := tab.series[c][i]; od <= v {
					t.Errorf("%s at %v users: on-demand %v not above %s %v", id, x, od, c, v)
				}
			}
		}
	}

	fig9b := table("fig9b", "on-demand", "fixed", "steered")
	od := fig9b.series["on-demand"]
	for i, x := range fig9b.x {
		for _, c := range []string{"fixed", "steered"} {
			if v := fig9b.series[c][i]; od[i] >= v {
				t.Errorf("fig9b at %v users: on-demand %v not below %s %v", x, od[i], c, v)
			}
		}
		if i > 0 && od[i] >= od[i-1] {
			t.Errorf("fig9b: on-demand reward %v at %v users does not fall from %v", od[i], x, od[i-1])
		}
	}
}

// TestExperimentsTablesMatchGolden checks the hand-copied tables of
// EXPERIMENTS.md against the committed 100-trial golden. A row's first
// cell is a golden row's x value, or a range "a-b" of them (Fig. 8(b)'s
// "5-15" rounds). Every other cell, after dropping "**" emphasis, "%"
// signs and "/round", must print the golden value rounded to the cell's
// decimals; over a range it prints the minimum and maximum as "lo-hi", or
// one value that is both. The columns follow the golden's order.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	tables := readGoldenTables(t, filepath.Join("testdata", "all-trials100-seed1.txt"))
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{
		"## Fig. 5(a) ":              "fig5a",
		"## Fig. 6(a) ":              "fig6a",
		"## Fig. 7(a) ":              "fig7a",
		"## Fig. 8(b) ":              "fig8b",
		"## Fig. 9(b) ":              "fig9b",
		"## Extension: WST vs SAT (": "ext-sat-vs-wst",
	}
	checked := make(map[string]int)
	var id string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			id = ""
			for prefix, golden := range sections {
				if strings.HasPrefix(line, prefix) {
					id = golden
				}
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i, c := range cells {
			c = strings.NewReplacer("**", "", "%", "", "/round", "").Replace(c)
			cells[i] = strings.TrimSpace(c)
		}
		first, last, isRange := strings.Cut(cells[0], "-")
		if !isRange {
			last = first
		}
		x0, err0 := strconv.ParseFloat(first, 64)
		x1, err1 := strconv.ParseFloat(last, 64)
		if err0 != nil || err1 != nil {
			continue // the header or the separator row
		}
		tab := tables[id]
		var rows [][]string
		for i, x := range tab.x {
			if x >= x0 && x <= x1 {
				rows = append(rows, tab.rows[i])
			}
		}
		if rows == nil {
			t.Errorf("EXPERIMENTS.md %s: no golden row for %s", id, cells[0])
			continue
		}
		if len(cells) > len(rows[0]) {
			t.Errorf("EXPERIMENTS.md %s at %s: %d cells, the golden has %d", id, cells[0], len(cells), len(rows[0]))
			continue
		}
		for col, cell := range cells[1:] {
			lo, hi := rows[0][col+1], rows[0][col+1]
			for _, row := range rows[1:] {
				if goldenValue(t, row[col+1]) < goldenValue(t, lo) {
					lo = row[col+1]
				}
				if goldenValue(t, row[col+1]) > goldenValue(t, hi) {
					hi = row[col+1]
				}
			}
			min, max, isRange := strings.Cut(cell, "-")
			if !isRange {
				max = min
			}
			where := fmt.Sprintf("EXPERIMENTS.md %s at %s, column %d", id, cells[0], col+1)
			checkRounded(t, where, min, lo)
			checkRounded(t, where, max, hi)
		}
		checked[id]++
	}
	for _, golden := range sections {
		if checked[golden] == 0 {
			t.Errorf("EXPERIMENTS.md: no %s row checked", golden)
		}
	}
}

// TestExperimentsAblationsMatchGolden checks the golden-derived numbers in
// EXPERIMENTS.md's Ablations bullets. Each pattern must match the
// section's prose (line breaks read as spaces), and each number it
// captures must print the named golden cell rounded to its decimals.
func TestExperimentsAblationsMatchGolden(t *testing.T) {
	tables := readGoldenTables(t, filepath.Join("testdata", "all-trials100-seed1.txt"))
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## Ablations")
	section, _, _ = strings.Cut(section, "\n## ")
	prose := strings.Join(strings.Fields(section), " ")
	const num = `([0-9.]+) %`
	for _, c := range []struct {
		pattern string
		id      string
		users   float64
		cols    []string
	}{
		{"AHP " + num + " vs equal weights " + num + ", deadline-only " + num + ", progress-only " + num + ", neighbors-only " + num,
			"ablation-weights", 100, []string{"ahp", "equal", "deadline-only", "progress-only", "neighbors-only"}},
		{"reaches " + num + " at 40 users vs " + num + " for N=5",
			"ablation-levels", 40, []string{"N=1", "N=5"}},
		{"climbs " + num + " → " + num + " → " + num + " → " + num + " for 150/300/600/1200 s",
			"ablation-budget", 100, []string{"150s", "300s", "600s", "1200s"}},
		{"completeness \\(" + num + " → " + num + " at 30 % churn, 100 users\\)",
			"ablation-churn", 100, []string{"churn=0%", "churn=30%"}},
		{"stationary " + num + " vs random-waypoint " + num + " at 100 users",
			"ablation-mobility", 100, []string{"stationary", "random-waypoint"}},
	} {
		m := regexp.MustCompile(c.pattern).FindStringSubmatch(prose)
		if m == nil {
			t.Errorf("EXPERIMENTS.md Ablations: no %q", c.pattern)
			continue
		}
		tab := tables[c.id]
		for i, col := range c.cols {
			row := -1
			for j, x := range tab.x {
				if x == c.users {
					row = j
				}
			}
			if row < 0 || len(tab.series[col]) <= row {
				t.Fatalf("%s: no golden %s column at %v users", c.id, col, c.users)
			}
			where := fmt.Sprintf("EXPERIMENTS.md Ablations, %s %s at %v users", c.id, col, c.users)
			checkRounded(t, where, m[i+1], strconv.FormatFloat(tab.series[col][row], 'f', -1, 64))
		}
	}
}

// checkRounded fails unless cell prints the golden value rounded, half
// away from zero, to the cell's number of decimals. The golden is read as
// the exact decimal it prints, so "258.1500" rounds to "258.2".
func checkRounded(t *testing.T, where, cell, golden string) {
	t.Helper()
	decimals := 0
	if _, frac, ok := strings.Cut(cell, "."); ok {
		decimals = len(frac)
	}
	v, ok := new(big.Rat).SetString(golden)
	if !ok {
		t.Fatalf("%s: golden %q is not a number", where, golden)
	}
	if want := v.FloatString(decimals); cell != want {
		t.Errorf("%s: %s, the golden %s rounds to %s", where, cell, golden, want)
	}
}

// goldenValue parses one printed golden cell.
func goldenValue(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
