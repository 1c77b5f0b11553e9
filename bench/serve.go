package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paydemand/internal/client"
	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/selection"
	"paydemand/internal/server"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/workload"
)

// serveConfig sizes a served-fleet workload. Workers use the paper's user
// parameters (2 m/s, 600 s, 0.002 $/m) and the platform the paper's
// on-demand mechanism over the paper's budget per required measurement.
type serveConfig struct {
	workload workload.Config
	codec    client.Codec
	// goroutines is the number of load goroutines, and the cap on client
	// connections.
	goroutines int
	// wrap, when set, wraps the platform's handler; tests use it to inject
	// faults.
	wrap func(http.Handler) http.Handler
}

// budgetPerMeasurement is the paper's budget per required measurement:
// 1000 $ for 20 tasks of 20 measurements.
const budgetPerMeasurement = sim.DefaultBudget / (workload.DefaultNumTasks * workload.DefaultRequired)

const (
	headerSpan  = "X-Bench-Span"
	headerTrace = "X-Bench-Trace"
)

// recKey carries a load goroutine's recorder in its request contexts, so
// the timing transport records into it.
type recKey struct{}

func endpointOf(path string) int {
	switch path {
	case wire.PathRound:
		return epRound
	case wire.PathPlan:
		return epPlan
	case wire.PathSubmit:
		return epSubmit
	case wire.PathAdvance:
		return epAdvance
	}
	return epOther
}

// serveTrace is the server side of a traced campaign: handler spans from
// a middleware around the platform, solver and mechanism spans from their
// wrappers, and the bytes each endpoint moved.
type serveTrace struct {
	sink      *sharedSink
	reqBytes  [numEndpoints]atomic.Int64
	respBytes [numEndpoints]atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t *serveTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointOf(r.URL.Path)
		cw := &countingWriter{ResponseWriter: w}
		start := clock()
		next.ServeHTTP(cw, r)
		end := clock()
		if !t.sink.on.Load() {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		trace, _ := strconv.ParseInt(r.Header.Get(headerTrace), 10, 64)
		t.sink.recordSpan(lHandle+layer(ep), start, end, parent, trace)
		if r.ContentLength > 0 {
			t.reqBytes[ep].Add(r.ContentLength)
		}
		t.respBytes[ep].Add(cw.n)
	})
}

// timedTransport records an http.roundtrip span from sending a request
// until its response body has been read to the end.
type timedTransport struct{ next http.RoundTripper }

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec, _ := req.Context().Value(recKey{}).(*recorder)
	if rec == nil {
		return t.next.RoundTrip(req)
	}
	rec.begin(lRoundTrip + layer(endpointOf(req.URL.Path)))
	req = req.Clone(req.Context())
	req.Header.Set(headerSpan, strconv.FormatInt(rec.stack[len(rec.stack)-1].id, 10))
	req.Header.Set(headerTrace, strconv.FormatInt(rec.trace, 10))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		rec.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: rec}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.rec.end()
	}
}

// campaign is one served platform with its registered fleet.
type campaign struct {
	cfg       serveConfig
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	cl        *client.Client
	ids       []int
	locs      []geo.Point
	budget    float64
	newConns  atomic.Int64
}

// newCampaign builds the platform for scenario sc, serves it on a loopback
// listener, registers one worker per scenario user and reprices round 1
// over the registered fleet. tr, when non-nil, traces the server side.
func newCampaign(cfg serveConfig, sc workload.Scenario, tr *serveTrace) (*campaign, error) {
	total := 0
	for _, tk := range sc.Tasks {
		total += tk.Required
	}
	budget := budgetPerMeasurement * float64(total)
	scheme, err := incentive.SchemeFromBudget(budget, total, sim.DefaultRewardLambda,
		demand.LevelMapper{N: sim.DefaultDemandLevels})
	if err != nil {
		return nil, err
	}
	var mech incentive.Mechanism
	if mech, err = incentive.NewPaperOnDemand(scheme); err != nil {
		return nil, err
	}
	var planner func() selection.Algorithm
	if tr != nil {
		mech = &timedMechanism{Mechanism: mech, sink: tr.sink}
		planner = func() selection.Algorithm {
			return &timedAlgorithm{Algorithm: &selection.Auto{}, sink: tr.sink}
		}
	}
	p, err := server.New(server.Config{
		Tasks:          sc.Tasks,
		Mechanism:      mech,
		Area:           sc.Area,
		NeighborRadius: sim.DefaultNeighborRadius,
		Planner:        planner,
		// Log lines are formatted as in production, then dropped.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = p
	if tr != nil {
		h = tr.middleware(h)
	}
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &campaign{cfg: cfg, budget: budget, served: make(chan struct{})}
	c.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				c.newConns.Add(1)
			}
		},
	}
	go func() {
		defer close(c.served)
		_ = c.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	c.transport = &http.Transport{
		MaxConnsPerHost:     cfg.goroutines,
		MaxIdleConnsPerHost: cfg.goroutines,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = c.transport
	if tr != nil {
		rt = &timedTransport{next: c.transport}
	}
	c.cl = client.New("http://"+ln.Addr().String(), &http.Client{Timeout: 10 * time.Second, Transport: rt},
		client.WithCodec(cfg.codec))
	ctx := context.Background()
	for _, loc := range sc.UserLocations {
		id, err := c.cl.Register(ctx, loc)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		c.ids = append(c.ids, id)
		c.locs = append(c.locs, loc)
	}
	if err := p.Reprice(); err != nil {
		c.close()
		return nil, fmt.Errorf("first reprice: %w", err)
	}
	return c, nil
}

// close stops the server and waits for it to exit.
func (c *campaign) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = c.srv.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = c.srv.Close()
	<-c.served
	c.transport.CloseIdleConnections()
}

// fleetPart is the share of the fleet one load goroutine drives, with
// everything it measures. Only its goroutine touches it while a round
// runs.
type fleetPart struct {
	workers  []int
	taskLoc  map[task.ID]geo.Point
	polls    []int64
	plans    []int64
	submits  []int64
	accepted int
	paid     float64
	requests int
	failed   int
	problems []string
	rec      *recorder
	ctx      context.Context
}

func newFleetPart(rec *recorder) *fleetPart {
	f := &fleetPart{taskLoc: map[task.ID]geo.Point{}, rec: rec, ctx: context.Background()}
	if rec != nil {
		f.ctx = context.WithValue(f.ctx, recKey{}, rec)
	}
	return f
}

func (f *fleetPart) begin(l layer) {
	if f.rec != nil {
		f.rec.begin(l)
		if l >= lClient && l < lRoundTrip {
			f.rec.trace = f.rec.stack[len(f.rec.stack)-1].id
		}
	}
}

func (f *fleetPart) end() {
	if f.rec != nil {
		f.rec.end()
	}
}

func (f *fleetPart) problem(format string, args ...any) {
	if len(f.problems) < 10 {
		f.problems = append(f.problems, fmt.Sprintf(format, args...))
	}
}

// call times one client call and counts it; a failed call is recorded as
// a failure and a problem.
func (f *fleetPart) call(ep int, samples *[]int64, do func() error) bool {
	f.requests++
	f.begin(lClient + layer(ep))
	t0 := clock()
	err := do()
	d := clock() - t0
	f.end()
	if err != nil {
		f.failed++
		f.problem("%s: %v", endpointNames[ep], err)
		return false
	}
	if samples != nil {
		*samples = append(*samples, d)
	}
	return true
}

// act runs one worker's round: poll the fresh round, ask for a plan,
// upload the plan's measurements, and walk to the plan's last task.
func (f *fleetPart) act(c *campaign, w, round int) {
	var info wire.RoundInfo
	if !f.call(epRound, &f.polls, func() (err error) { info, err = c.cl.Round(f.ctx); return err }) {
		return
	}
	if info.Round != round || info.Unchanged || info.Done {
		f.problem("worker %d: first poll after advance to %d read round %d unchanged=%v done=%v",
			c.ids[w], round, info.Round, info.Unchanged, info.Done)
		return
	}
	for _, tk := range info.Tasks {
		f.taskLoc[tk.ID] = tk.Location
	}
	var plan wire.PlanResponse
	if !f.call(epPlan, &f.plans, func() (err error) {
		plan, err = c.cl.Plan(f.ctx, wire.PlanRequest{
			UserID:       c.ids[w],
			Location:     c.locs[w],
			Speed:        sim.DefaultUserSpeed,
			TimeBudget:   sim.DefaultUserTimeBudget,
			CostPerMeter: sim.DefaultCostPerMeter,
		})
		return err
	}) {
		return
	}
	if plan.Round != round {
		f.problem("worker %d: plan solved against round %d, want %d", c.ids[w], plan.Round, round)
		return
	}
	if len(plan.Order) == 0 {
		return
	}
	end, ok := f.taskLoc[plan.Order[len(plan.Order)-1]]
	if !ok {
		f.problem("worker %d: plan ends at task %d, which round %d did not publish", c.ids[w], plan.Order[len(plan.Order)-1], round)
		return
	}
	sub := wire.SubmitRequest{UserID: c.ids[w], Round: round, Location: end}
	for _, id := range plan.Order {
		sub.Measurements = append(sub.Measurements, wire.Measurement{TaskID: id, Value: 50 + float64(id%16)})
	}
	var resp wire.SubmitResponse
	if !f.call(epSubmit, &f.submits, func() (err error) { resp, err = c.cl.Submit(f.ctx, sub); return err }) {
		return
	}
	paid := 0.0
	for _, res := range resp.Results {
		if res.Accepted {
			f.accepted++
			paid += res.Reward
		}
	}
	if paid != resp.TotalPaid {
		f.problem("worker %d: accepted rewards sum to %v, response says %v", c.ids[w], paid, resp.TotalPaid)
	}
	f.paid += paid
	c.locs[w] = end
}

// campaignRun is what one served campaign measured.
type campaignRun struct {
	parts  []*fleetPart
	main   *fleetPart
	rounds []int64
	window int64
}

// run drives the campaign to its end. Each load goroutine acts for its
// workers in turn; once every goroutine has finished the round, the main
// goroutine advances it. A round spans from one advance's reply to the
// next. recs, when non-nil, holds one recorder per load goroutine and a
// last one for the main goroutine.
func (c *campaign) run(recs []*recorder) campaignRun {
	g := c.cfg.goroutines
	var run campaignRun
	rec := func(i int) *recorder {
		if recs == nil {
			return nil
		}
		return recs[i]
	}
	run.main = newFleetPart(rec(g))
	start := make([]chan int, g)
	done := make(chan struct{}, g) // one finished round per goroutine
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		f := newFleetPart(rec(i))
		for w := i; w < len(c.ids); w += g {
			f.workers = append(f.workers, w)
		}
		run.parts = append(run.parts, f)
		start[i] = make(chan int)
		wg.Add(1)
		go func(f *fleetPart, next <-chan int) {
			defer wg.Done()
			for {
				f.begin(lWait)
				round, ok := <-next
				f.end()
				if !ok {
					return
				}
				for _, w := range f.workers {
					f.act(c, w, round)
				}
				done <- struct{}{}
			}
		}(f, start[i])
	}

	t0 := clock()
	last := t0
	round := 1
	for {
		for _, ch := range start {
			ch <- round
		}
		for range start {
			run.main.begin(lWait)
			<-done
			run.main.end()
		}
		var adv wire.AdvanceResponse
		ok := run.main.call(epAdvance, nil, func() (err error) { adv, err = c.cl.Advance(run.main.ctx); return err })
		now := clock()
		run.rounds = append(run.rounds, now-last)
		last = now
		if !ok || adv.Done {
			break
		}
		if adv.Round != round+1 {
			run.main.problem("advance from round %d returned round %d", round, adv.Round)
			break
		}
		round = adv.Round
	}
	for _, ch := range start {
		close(ch)
	}
	wg.Wait()
	run.window = clock() - t0
	for _, r := range recs {
		r.window += run.window
	}
	return run
}

// check compares the platform's final status with what the fleet was
// told, and folds the campaign's counts into r.
func (c *campaign) check(run campaignRun, r *result) (accepted int) {
	paid := 0.0
	for _, f := range append(run.parts, run.main) {
		r.attempted += f.requests
		r.failed += f.failed
		for _, p := range f.problems {
			r.fail("%s", p)
		}
		accepted += f.accepted
		paid += f.paid
	}
	r.attempted++
	status, err := c.cl.Status(context.Background())
	if err != nil {
		r.failed++
		r.fail("status: %v", err)
		return accepted
	}
	if !status.Done {
		r.fail("campaign not done after %d rounds", len(run.rounds))
	}
	if status.TotalMeasurements != accepted {
		r.fail("status counts %d measurements, fleet had %d accepted", status.TotalMeasurements, accepted)
	}
	if math.Abs(status.TotalRewardPaid-paid) > 1e-9*math.Max(1, paid) {
		r.fail("status says %v paid, accepted rewards sum to %v", status.TotalRewardPaid, paid)
	}
	if status.TotalRewardPaid > c.budget+1e-6 {
		r.fail("paid %v over budget %v", status.TotalRewardPaid, c.budget)
	}
	return accepted
}

// runServe measures served campaigns until the measured time reaches d.
// Every campaign's scenario is drawn from seed.
func runServe(cfg serveConfig, seed int64, d time.Duration) *result {
	r := newResult()
	rng := stats.NewRNG(seed)
	warm := newResult()
	serveOne(cfg, rng, warm)
	if len(warm.problems) > 0 {
		return warm
	}
	var (
		setups, rounds, polls, plans, submits []int64
		window                                int64
		allocs                                uint64
		campaigns                             int
		// rates holds each campaign's accepted measurements per second.
		rates []float64
	)
	ref, err := newSpeedRef(false)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	defer ref.close()
	runtime.GC()
	for window < int64(d) && len(r.problems) == 0 {
		ref.sample()
		sc, err := workload.Generate(rng.Split(), cfg.workload)
		if err != nil {
			r.fail("generate: %v", err)
			break
		}
		t0 := clock()
		c, err := newCampaign(cfg, sc, nil)
		setups = append(setups, clock()-t0)
		if err != nil {
			r.fail("campaign %d: %v", campaigns, err)
			break
		}
		a0 := allocBytes()
		run := c.run(nil)
		allocs += allocBytes() - a0
		rates = append(rates, float64(c.check(run, r))/(float64(run.window)/1e9))
		c.close()
		campaigns++
		window += run.window
		rounds = append(rounds, run.rounds...)
		for _, f := range run.parts {
			polls = append(polls, f.polls...)
			plans = append(plans, f.plans...)
			submits = append(submits, f.submits...)
		}
	}
	if len(rounds) == 0 {
		return r
	}
	r.set("setup_s", median(setups)/1e9)
	r.set("measurements_per_s", median(rates))
	r.percentiles(rounds, 1e6, map[string]float64{"round_ms_p50": 0.5})
	r.percentiles(plans, 1e3, map[string]float64{"plan_us_p50": 0.5})
	r.set("alloc_kb_per_round", float64(allocs)/1024/float64(len(rounds)))
	slices.Sort(polls)
	slices.Sort(submits)
	for _, q := range []struct {
		name string
		xs   []int64
		q    float64
	}{{"poll_us_p50", polls, 0.5}, {"poll_us_p99", polls, 0.99}, {"submit_us_p50", submits, 0.5}, {"submit_us_p99", submits, 0.99}} {
		if v, ok := quantile(q.xs, q.q); ok {
			r.addExtra(q.name, v/1e3, "us", len(q.xs))
		}
	}
	r.addExtra("campaigns", float64(campaigns), "count", 0)
	r.addExtra("rounds", float64(len(rounds)), "count", 0)
	r.addExtra("measured_s", float64(window)/1e9, "s", 0)
	ref.normalize(r)
	return r
}

// serveOne runs one whole campaign on a fresh scenario, for warm-up.
func serveOne(cfg serveConfig, rng *stats.RNG, r *result) {
	sc, err := workload.Generate(rng.Split(), cfg.workload)
	if err != nil {
		r.fail("generate: %v", err)
		return
	}
	c, err := newCampaign(cfg, sc, nil)
	if err != nil {
		r.fail("warm-up: %v", err)
		return
	}
	defer c.close()
	c.check(c.run(nil), r)
}

// traceServe runs campaign pairs for d: each scenario is served once
// untraced and once traced. The traced campaigns give the per-layer
// metrics; the ratio of the pair's mean round times is the tracing
// overhead.
func traceServe(cfg serveConfig, seed int64, d time.Duration) (*result, []span) {
	r := newResult()
	rng := stats.NewRNG(seed)
	serveOne(cfg, rng, r)
	if len(r.problems) > 0 {
		return r, nil
	}
	recs := make([]*recorder, cfg.goroutines+1)
	for i := range recs {
		recs[i] = newRecorder()
	}
	tr := &serveTrace{sink: newSharedSink(lSelect)}
	var (
		plainWindow, tracedWindow int64
		plainRounds, tracedRounds int
		accepted, newConns        int64
		roundTimes, planTimes     []int64
	)
	runtime.GC()
	for plainWindow+tracedWindow < int64(d) && len(r.problems) == 0 {
		sc, err := workload.Generate(rng.Split(), cfg.workload)
		if err != nil {
			r.fail("generate: %v", err)
			break
		}
		c, err := newCampaign(cfg, sc, nil)
		if err != nil {
			r.fail("campaign: %v", err)
			break
		}
		run := c.run(nil)
		c.check(run, r)
		c.close()
		plainWindow += run.window
		plainRounds += len(run.rounds)
		roundTimes = append(roundTimes, run.rounds...)
		for _, f := range run.parts {
			planTimes = append(planTimes, f.plans...)
		}

		if c, err = newCampaign(cfg, sc, tr); err != nil {
			r.fail("campaign: %v", err)
			break
		}
		conns := c.newConns.Load()
		tr.sink.on.Store(true)
		run = c.run(recs)
		tr.sink.on.Store(false)
		newConns += c.newConns.Load() - conns
		accepted += int64(c.check(run, r))
		c.close()
		tracedWindow += run.window
		tracedRounds += len(run.rounds)
	}
	all := newRecorder()
	for _, rec := range recs {
		all.merge(rec)
	}
	if tracedRounds == 0 || plainRounds == 0 {
		return r, all.spans
	}
	unattributed := 1 - float64(all.top)/float64(all.window)
	all.merge(tr.sink.rec)

	a := &all.agg
	rounds := float64(tracedRounds)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / rounds }
	var driver, bytes int64
	for ep := layer(0); ep < numEndpoints; ep++ {
		driver += a[lClient+ep].total - a[lHandle+ep].total
		bytes += tr.reqBytes[ep].Load() + tr.respBytes[ep].Load()
	}
	r.set("driver.self.ms_per_round", ms(driver))
	r.set("engine.reprice.ms_per_round", ms(a[lHandle+epAdvance].total-a[lRewards].total))
	r.set("engine.problem.ms_per_round", ms(a[lHandle+epPlan].total-a[lSelect].total))
	r.set("engine.commit.ms_per_round", ms(a[lHandle+epSubmit].total))
	r.set("engine.publish.ms_per_round", ms(a[lHandle+epRound].total+a[lHandle+epOther].total))
	r.set("engine.tasks_committed_per_round", float64(accepted)/rounds)
	r.set("wire.bytes_per_round", float64(bytes)/rounds)
	r.set("http.new_conns_per_round", float64(newConns)/rounds)
	r.set("trace.unattributed_ratio", unattributed)
	r.set("trace.overhead_ratio", (float64(tracedWindow)/rounds)/(float64(plainWindow)/float64(plainRounds)))
	reportTails(r, roundTimes, planTimes)
	reportCommon(r, all, tracedRounds)
	for ep := layer(0); ep < epOther; ep++ {
		name := endpointNames[ep]
		r.addExtra("client.codec."+name+".ms_per_round", ms(a[lClient+ep].total-a[lRoundTrip+ep].total), "ms", 0)
		r.addExtra("transport."+name+".ms_per_round", ms(a[lRoundTrip+ep].total-a[lHandle+ep].total), "ms", 0)
		r.addExtra("server.handle."+name+".ms_per_round", ms(a[lHandle+ep].total), "ms", 0)
		r.addExtra("wire.req_bytes."+name+"_per_round", float64(tr.reqBytes[ep].Load())/rounds, "bytes", 0)
		r.addExtra("wire.resp_bytes."+name+"_per_round", float64(tr.respBytes[ep].Load())/rounds, "bytes", 0)
	}
	r.addExtra("loadgen.wait.ms_per_round", ms(a[lWait].total), "ms", 0)
	r.addExtra("rounds", rounds, "count", 0)
	if all.dropped > 0 {
		r.addExtra("trace.dropped_spans", float64(all.dropped), "count", 0)
	}
	return r, all.spans
}
