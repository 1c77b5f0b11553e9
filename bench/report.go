package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metric is one reported number as BENCHMARK.json declares it. Bound is
// the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. A "round" is a sensing round with at least one
// open task; a "plan" is one user's task selection step (see README.md for
// what each means on each workload). Timings and rates are reported at the
// recording host's speed (see speed.go).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"measurements_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"plan_us_p50", "us", "lower", 0.25},
	{"alloc_kb_per_round", "KiB", "lower", 0.15},
}

// perLayer are the traced run's metrics: self time per layer and round,
// the solver's per-call time, the counts that explain them, and the tail
// latencies of the untraced twins.
var perLayer = []metric{
	{"round_ms_p90", "ms", "lower", 0},
	{"plan_us_p99", "us", "lower", 0},
	{"driver.self.ms_per_round", "ms", "lower", 0},
	{"engine.reprice.ms_per_round", "ms", "lower", 0},
	{"engine.problem.ms_per_round", "ms", "lower", 0},
	{"engine.commit.ms_per_round", "ms", "lower", 0},
	{"engine.publish.ms_per_round", "ms", "lower", 0},
	{"incentive.rewards.ms_per_round", "ms", "lower", 0},
	{"incentive.rewards.calls_per_round", "count", "lower", 0},
	{"selection.select.ms_per_round", "ms", "lower", 0},
	{"selection.select.us_p50", "us", "lower", 0},
	{"selection.select.calls_per_round", "count", "lower", 0},
	{"selection.candidates_per_call", "count", "lower", 0},
	{"selection.nonempty_ratio", "ratio", "higher", 0},
	{"engine.tasks_committed_per_round", "count", "higher", 0},
	{"wire.bytes_per_round", "bytes", "lower", 0},
	{"http.new_conns_per_round", "count", "lower", 0},
	{"trace.unattributed_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// result is one run's outcome: the contract metrics, any extra breakdown
// lines, and the correctness verdict.
type result struct {
	attempted int
	failed    int
	problems  []string
	// thin lists percentiles with fewer than minBeyond samples beyond
	// them. It fails an untraced run; a traced run only notes it.
	thin   []string
	values map[string]float64
	counts map[string]int
	extra  []line
}

// line is an informational metric printed to stdout but not part of the
// contract's final JSON line.
type line struct {
	name  string
	value float64
	unit  string
	n     int
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setTiming stores a timing with its sample count.
func (r *result) setTiming(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

func (r *result) addExtra(name string, v float64, unit string, n int) {
	r.extra = append(r.extra, line{name, v, unit, n})
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted and whether at
// least minBeyond samples lie beyond it.
func quantile(sorted []int64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]), n-1-i >= minBeyond
}

// percentiles sorts xs in place and stores its q-quantiles, in units of
// scale nanoseconds, as the named timings; a percentile without enough
// samples beyond it is listed in r.thin.
func (r *result) percentiles(xs []int64, scale float64, named map[string]float64) {
	slices.Sort(xs)
	for name, q := range named {
		v, ok := quantile(xs, q)
		if !ok {
			r.thin = append(r.thin, fmt.Sprintf("%s: %d samples leave fewer than %d beyond the percentile", name, len(xs), minBeyond))
		}
		r.setTiming(name, v/scale, len(xs))
	}
}

// print writes every metric as "workload metric value unit [n=count]"
// lines, then the contract's JSON line last.
func (r *result) print(w io.Writer, wl string, specs []metric) error {
	for _, m := range specs {
		v, ok := r.values[m.Name]
		if !ok {
			r.fail("metric %s was not measured", m.Name)
			continue
		}
		printLine(w, wl, line{m.Name, v, m.Unit, r.counts[m.Name]})
	}
	for _, l := range r.extra {
		printLine(w, wl, l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# check failed: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range specs {
		if v, ok := r.values[m.Name]; ok {
			out.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func printLine(w io.Writer, wl string, l line) {
	if l.n > 0 {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", wl, l.name, l.value, l.unit, l.n)
		return
	}
	fmt.Fprintf(w, "%s %s %.6g %s\n", wl, l.name, l.value, l.unit)
}
