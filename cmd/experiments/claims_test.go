package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenTable is one population-sweep table of the committed paper
// golden: the x values and one series per column.
type goldenTable struct {
	x      []float64
	series map[string][]float64
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
