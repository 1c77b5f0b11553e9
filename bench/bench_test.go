package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paydemand/internal/analysis"
	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

// tinySim shrinks a simulation workload to test size.
func tinySim(c sim.Config) sim.Config {
	c.Workload.NumUsers /= 4
	c.Workload.NumTasks /= 4
	return c
}

func tinyServe(c serveConfig) serveConfig {
	c.workload = workload.Config{NumTasks: 10, NumUsers: 20, Required: 3}
	return c
}

// clean fails the test on any check problem.
func clean(t *testing.T, name string, r *result) {
	t.Helper()
	for _, p := range r.problems {
		t.Errorf("%s: %s", name, p)
	}
	if r.attempted == 0 {
		t.Errorf("%s: nothing attempted", name)
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at test
// sizes and checks that each reports every metric it declares.
func TestWorkloadsTiny(t *testing.T) {
	const d = 20 * time.Millisecond
	cases := []benchWorkload{
		simWorkload("paper-sim", tinySim(paperSim())),
		simWorkload("city-sim", tinySim(citySim())),
		serveWorkload("serve-tlv", tinyServe(serveTLV())),
		serveWorkload("serve-json", tinyServe(serveJSON())),
	}
	for _, wl := range cases {
		r := wl.measure(1, d, nil)
		clean(t, wl.name, r)
		for _, m := range endToEnd {
			if v, ok := r.values[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", wl.name, m.Name, v)
			}
		}
		tr, spans := wl.traced(1, d)
		clean(t, wl.name+" traced", tr)
		for _, m := range perLayer {
			if _, ok := tr.values[m.Name]; !ok {
				t.Errorf("%s traced: %s missing", wl.name, m.Name)
			}
		}
		if len(spans) == 0 {
			t.Errorf("%s traced: no spans", wl.name)
		}
	}
}

// TestMirrorMatchesSim pins the traced mirror to sim.Run: on both
// simulation configurations and seeds 1-5, its TrialResult JSON is
// byte-identical.
func TestMirrorMatchesSim(t *testing.T) {
	for name, cfg := range map[string]sim.Config{"paper-sim": paperSim(), "city-sim": tinySim(citySim())} {
		for seed := int64(1); seed <= 5; seed++ {
			got, _, err := mirrorTrial(cfg, seed, 0, newRecorder())
			if err != nil {
				t.Fatalf("%s seed %d: mirror: %v", name, seed, err)
			}
			want, err := sim.Run(cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: sim.Run: %v", name, seed, err)
			}
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if string(g) != string(w) {
				t.Errorf("%s seed %d: mirror and sim.Run differ\nmirror %s\nsim    %s", name, seed, g, w)
			}
		}
	}
}

// TestGolden checks that seed 1 reproduces the committed paper-sim
// goldens and that a corrupted golden fails the run.
func TestGolden(t *testing.T) {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	want := golden["paper-sim"]
	if len(want) == 0 {
		t.Fatal("no paper-sim golden")
	}
	clean(t, "golden", runSim(paperSim(), 1, time.Millisecond, want))

	bad := append([]string(nil), want...)
	bad[len(bad)-1] = strings.Repeat("0", 64)
	if r := runSim(paperSim(), 1, time.Millisecond, bad); len(r.problems) == 0 {
		t.Error("a corrupted golden did not fail the run")
	}
}

// TestInjected500 checks that one failed request fails a serving run.
func TestInjected500(t *testing.T) {
	cfg := tinyServe(serveTLV())
	var plans atomic.Int64
	cfg.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/plan" && plans.Add(1) == 30 {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	r := runServe(cfg, 1, 20*time.Millisecond)
	if r.failed == 0 || len(r.problems) == 0 {
		t.Errorf("injected 500: failed=%d problems=%v, want a failed run", r.failed, r.problems)
	}
}

// TestRunOutput checks the command's contract: the last stdout line is
// the JSON verdict with every declared metric, and bad flags fail.
func TestRunOutput(t *testing.T) {
	var out, errOut strings.Builder
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if code := run([]string{"--workload", "paper-sim", "--seed", "2", "--seconds", "0.3", "--trace", "1", "--spans", spans}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var verdict struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if !verdict.Correct || verdict.Attempted < 1 || len(verdict.Metrics) != len(perLayer) {
		t.Errorf("verdict = %+v", verdict)
	}
	// At the benchmark's own sizes the spans cover at least 90% of the
	// traced wall time.
	if u := verdict.Metrics["trace.unattributed_ratio"].Value; u > 0.10 {
		t.Errorf("unattributed ratio %v > 0.10", u)
	}
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("span log not written: %v", err)
	}
	for _, args := range [][]string{{"--workload", "nosuch"}, {"--workload", "paper-sim", "--trace", "2"}, {"--nosuchflag"}} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) = 0, want an error", args)
		}
	}
}

// TestNormalize checks that a run on a host twice as slow as the recording
// host (the geometric mean of a CPU kernel at 1x and a network kernel at
// 4x) reports its timings halved and its rates doubled, keeps the raw
// values, and leaves allocations alone.
func TestNormalize(t *testing.T) {
	ref := &speedRef{kernels: []*refKernel{
		{name: "cpu", nominal: 100, samples: []int64{90, 100, 130}},
		{name: "net", nominal: 10, samples: []int64{40, 35, 80}},
	}}
	r := newResult()
	r.set("setup_s", 2)
	r.set("measurements_per_s", 10)
	r.set("round_ms_p50", 8)
	r.set("alloc_kb_per_round", 5)
	ref.normalize(r)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	want := map[string]float64{"setup_s": 1, "measurements_per_s": 20, "round_ms_p50": 4, "alloc_kb_per_round": 5}
	for name, v := range want {
		if !near(r.values[name], v) {
			t.Errorf("%s = %v, want %v", name, r.values[name], v)
		}
	}
	lines := map[string]float64{}
	for _, l := range r.extra {
		lines[l.name] = l.value
	}
	if lines["round_ms_p50.raw"] != 8 || !near(lines["ref.speed_factor"], 2) || lines["ref.net.us_p50"] != 0.04 {
		t.Errorf("informational lines = %v", lines)
	}
	if _, ok := lines["alloc_kb_per_round.raw"]; ok {
		t.Error("allocations were normalized")
	}

	ref.err = errors.New("echo failed")
	failed := newResult()
	ref.normalize(failed)
	if len(failed.problems) == 0 {
		t.Error("a failed reference did not fail the run")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's metric and
// workload tables in step, and the names within the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or repeated", name)
		}
		seen[name] = true
	}
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, names[i])
		}
	}
	for _, pair := range []struct{ json, code []metric }{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Fatalf("BENCHMARK.json has %d metrics, code %d", len(pair.json), len(pair.code))
		}
		for i, m := range pair.json {
			check(m.Name)
			if m != pair.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, m, pair.code[i])
			}
		}
	}
}

// TestPaylintClean runs the repository's analyzer suite over the
// benchmark package.
func TestPaylintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping package loading in -short mode")
	}
	pkgs, err := analysis.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
