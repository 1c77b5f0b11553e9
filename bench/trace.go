package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one traced call boundary. Spans are recorded by the
// benchmark around the public calls it makes into each package; nothing
// inside the program under test is instrumented.
type layer int

// Endpoints of the served platform, in the order the per-endpoint layers
// below are laid out.
const (
	epRound = iota
	epPlan
	epSubmit
	epAdvance
	epOther
	numEndpoints
)

var endpointNames = [numEndpoints]string{"round", "plan", "submit", "advance", "other"}

const (
	// Simulation layers, one per public call of the mirrored round loop.
	lSetup layer = iota
	lBeginRound
	lNeighborViews
	lRepriceViews
	lRewards
	lProblemInto
	lSelect
	lCommitPlan
	lFinishRound
	lFinishTrial
	lDriver
	// Serving layers that are not per endpoint.
	lWait
	// Per-endpoint serving layers: lClient+ep, lRoundTrip+ep, lHandle+ep.
	lClient
	lRoundTrip = lClient + numEndpoints
	lHandle    = lRoundTrip + numEndpoints
	numLayers  = lHandle + numEndpoints
)

var layerNames = func() [numLayers]string {
	n := [numLayers]string{
		lSetup:         "sim.setup",
		lBeginRound:    "engine.begin_round",
		lNeighborViews: "engine.neighbor_views",
		lRepriceViews:  "engine.reprice_views",
		lRewards:       "incentive.rewards",
		lProblemInto:   "engine.problem_into",
		lSelect:        "selection.select",
		lCommitPlan:    "engine.commit_plan",
		lFinishRound:   "engine.finish_round_stats",
		lFinishTrial:   "engine.finish_trial",
		lDriver:        "sim.driver",
		lWait:          "loadgen.wait",
	}
	for ep, name := range endpointNames {
		n[lClient+layer(ep)] = "client." + name
		n[lRoundTrip+layer(ep)] = "http.roundtrip." + name
		n[lHandle+layer(ep)] = "server.handle." + name
	}
	return n
}()

func (l layer) String() string { return layerNames[l] }

// epoch is the common time base of every recorder, so spans recorded on
// different goroutines share one clock.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// spanIDs hands out span identifiers unique across recorders.
var spanIDs atomic.Int64

// span is one recorded call: its layer, start and end on the common clock,
// the span that caused it (0 for none, -1 when it ran on the server side
// of a request and is attributed by time containment), and the trace it
// belongs to (a trial's round, or a client request).
type span struct {
	Layer  layer
	Start  int64
	End    int64
	ID     int64
	Parent int64
	Trace  int64
}

// maxSpans caps the raw span log of one recorder; aggregates are always
// complete.
const maxSpans = 200_000

// layerAgg accumulates one layer's calls, total time and self time (total
// minus the time its child spans cover).
type layerAgg struct {
	calls int64
	total int64
	self  int64
}

type frame struct {
	l     layer
	id    int64
	start int64
	child int64
}

// recorder collects the spans of one goroutine. It is not safe for
// concurrent use.
type recorder struct {
	stack   []frame
	agg     [numLayers]layerAgg
	samples [numLayers][]int64
	keep    [numLayers]bool
	spans   []span
	dropped int
	trace   int64
	// top is the summed duration of spans with no parent on this
	// recorder; window is the wall time the recorder was active for.
	top    int64
	window int64
	// candidates and nonEmpty count the solver's problem sizes and the
	// solves that returned a non-empty plan.
	candidates int64
	nonEmpty   int64
}

func newRecorder(keepSamples ...layer) *recorder {
	r := &recorder{}
	for _, l := range keepSamples {
		r.keep[l] = true
	}
	return r
}

// begin opens a span of layer l as a child of the innermost open span.
func (r *recorder) begin(l layer) {
	r.stack = append(r.stack, frame{l: l, id: spanIDs.Add(1), start: clock()})
}

// end closes the innermost open span.
func (r *recorder) end() {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	end := clock()
	var parent int64
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1].id
	}
	r.close(f, end, parent)
}

// record adds a finished leaf span measured by the caller.
func (r *recorder) record(l layer, start, end int64) {
	var parent int64
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1].id
	}
	r.close(frame{l: l, id: spanIDs.Add(1), start: start}, end, parent)
}

func (r *recorder) close(f frame, end, parent int64) {
	d := end - f.start
	a := &r.agg[f.l]
	a.calls++
	a.total += d
	a.self += d - f.child
	if r.keep[f.l] {
		r.samples[f.l] = append(r.samples[f.l], d)
	}
	if len(r.stack) > 0 {
		r.stack[len(r.stack)-1].child += d
	} else {
		r.top += d
	}
	r.log(span{Layer: f.l, Start: f.start, End: end, ID: f.id, Parent: parent, Trace: r.trace})
}

func (r *recorder) log(s span) {
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// selected records a solve as a leaf span with its problem size.
func (r *recorder) selected(start, end int64, candidates int, nonEmpty bool) {
	r.record(lSelect, start, end)
	r.candidates += int64(candidates)
	if nonEmpty {
		r.nonEmpty++
	}
}

// merge folds o's aggregates and spans into r.
func (r *recorder) merge(o *recorder) {
	for l := range r.agg {
		r.agg[l].calls += o.agg[l].calls
		r.agg[l].total += o.agg[l].total
		r.agg[l].self += o.agg[l].self
		r.samples[l] = append(r.samples[l], o.samples[l]...)
	}
	for _, s := range o.spans {
		r.log(s)
	}
	r.dropped += o.dropped
	r.candidates += o.candidates
	r.nonEmpty += o.nonEmpty
	r.top += o.top
	r.window += o.window
}

// sink receives leaf spans measured by a wrapper around a program
// interface (the mechanism, the planner).
type sink interface {
	record(l layer, start, end int64)
	selected(start, end int64, candidates int, nonEmpty bool)
}

// sharedSink is a sink safe for concurrent use, for spans recorded on the
// platform's server goroutines. It records only while on is set, so the
// platform's set-up (its first reprice) stays out of the measured layers.
type sharedSink struct {
	on  atomic.Bool
	mu  sync.Mutex
	rec *recorder
}

func newSharedSink(keepSamples ...layer) *sharedSink {
	return &sharedSink{rec: newRecorder(keepSamples...)}
}

func (s *sharedSink) record(l layer, start, end int64) {
	s.recordSpan(l, start, end, -1, -1)
}

func (s *sharedSink) recordSpan(l layer, start, end, parent, trace int64) {
	if !s.on.Load() {
		return
	}
	s.mu.Lock()
	a := &s.rec.agg[l]
	a.calls++
	a.total += end - start
	a.self += end - start
	if s.rec.keep[l] {
		s.rec.samples[l] = append(s.rec.samples[l], end-start)
	}
	s.rec.log(span{Layer: l, Start: start, End: end, ID: spanIDs.Add(1), Parent: parent, Trace: trace})
	s.mu.Unlock()
}

func (s *sharedSink) selected(start, end int64, candidates int, nonEmpty bool) {
	if !s.on.Load() {
		return
	}
	s.recordSpan(lSelect, start, end, -1, -1)
	s.mu.Lock()
	s.rec.candidates += int64(candidates)
	if nonEmpty {
		s.rec.nonEmpty++
	}
	s.mu.Unlock()
}

// sortedCopy returns xs sorted, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// writeSpans writes the span log as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Trace  int64  `json:"trace"`
		}{s.Layer.String(), s.Start, s.End, s.ID, s.Parent, s.Trace}); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
