// Command loadgen drives a platform with N simulated workers in a closed
// loop — each is a client.Worker on POST /v1/plan, so it polls the round
// (with the known-round short circuit), requests a plan, submits
// measurements from the plan's last task, where it then stands, and
// immediately polls again — while a coordinator advances the round as
// soon as every worker has acted. It reports round and measurement
// throughput, the share of plans that came back empty, and per-endpoint
// latency percentiles, counted and timed by its HTTP transport: the
// harness behind BENCH_wire.json's JSON-vs-TLV serving comparison.
//
// With no -platform it self-hosts one on a loopback listener: a long
// campaign (huge per-task demand and deadline) so the round loop runs at
// full speed. A worker contributes to each task once, so a fleet on a
// small board runs out of work within a few rounds; once a round passes
// in which every worker acted and none submitted, the run starts a fresh
// campaign (a new platform, board and fleet) and goes on, so the load is
// real work for the whole -duration. With -platform the report's task
// count is the platform's open tasks when the run starts.
//
// Example:
//
//	loadgen -workers 1000 -codec tlv -duration 10s -out bench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paydemand/internal/client"
	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/server"
	"paydemand/internal/stats"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the run digest, printed to stdout and written to -out.
type report struct {
	Codec        string  `json:"codec"`
	Workers      int     `json:"workers"`
	Tasks        int     `json:"tasks"`
	DurationSec  float64 `json:"duration_sec"`
	Rounds       int64   `json:"rounds"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Campaigns counts the campaigns the fleet ran: one, plus one per
	// fresh self-hosted campaign started after the fleet ran out of work.
	Campaigns int `json:"campaigns"`
	// Measurements is the growth of the platforms' total_measurements
	// over the run: the measurements accepted.
	Measurements       int64   `json:"measurements"`
	MeasurementsPerSec float64 `json:"measurements_per_s"`
	// EmptyPlanShare is the share of plans with no task. Every other plan
	// ends in one submit, accepted or refused as a conflict.
	EmptyPlanShare float64 `json:"empty_plan_share"`
	// SubmitsByQuarter splits the accepted submits by the quarter of the
	// run's rounds they were made in; a fleet that runs out of work shows
	// as zeros at the end.
	SubmitsByQuarter [4]int64           `json:"submits_by_quarter"`
	Polls            int64              `json:"polls"`
	Plans            int64              `json:"plans"`
	Submits          int64              `json:"submits"`
	Conflicts        int64              `json:"conflicts"`
	Errors           int64              `json:"errors"`
	Latency          map[string]summary `json:"latency"`
}

// run executes the load run and writes the human summary to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		platformURL = fs.String("platform", "", "platform base URL (empty = self-host on loopback)")
		workers     = fs.Int("workers", 100, "closed-loop workers")
		codec       = fs.String("codec", "json", "wire codec: json | tlv")
		duration    = fs.Duration("duration", 10*time.Second, "run length")
		minRounds   = fs.Int64("min-rounds", 1, "keep running past -duration until this many rounds completed")
		poll        = fs.Duration("poll", time.Millisecond, "pause between unchanged polls and between retries")
		advanceMax  = fs.Duration("advance-after", 250*time.Millisecond, "advance even if not all workers acted after this long")
		nTasks      = fs.Int("tasks", 40, "self-host: number of tasks")
		area        = fs.Float64("area", 2000, "self-host: square area side in meters")
		r0          = fs.Float64("r0", 2.0, "self-host: base reward per measurement")
		seed        = fs.Int64("seed", 1, "placement seed")
		outPath     = fs.String("out", "", "write the JSON report here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("workers %d, want >= 1", *workers)
	}
	codecOpt, err := client.ParseCodec(*codec)
	if err != nil {
		return err
	}

	transport := &http.Transport{MaxIdleConnsPerHost: *workers, IdleConnTimeout: 90 * time.Second}
	defer transport.CloseIdleConnections()
	m := &meter{
		next: transport,
		latency: map[string]*hist{
			wire.PathRound:  new(hist),
			wire.PathPlan:   new(hist),
			wire.PathSubmit: new(hist),
		},
	}
	f := &fleet{
		m:          m,
		client:     &http.Client{Timeout: 10 * time.Second, Transport: m},
		codec:      codecOpt,
		platform:   *platformURL,
		rng:        stats.NewRNG(*seed),
		workers:    *workers,
		tasks:      *nTasks,
		area:       *area,
		r0:         *r0,
		poll:       *poll,
		advanceMax: *advanceMax,
		minRounds:  *minRounds,
		deadline:   time.NewTimer(*duration),
	}
	defer f.deadline.Stop()

	rep := report{Codec: *codec, Workers: *workers}
	began := time.Now()
	for {
		spent, err := f.serve(ctx)
		if err != nil {
			return err
		}
		rep.Campaigns++
		if !spent {
			break
		}
	}
	elapsed := time.Since(began)

	rep.DurationSec = elapsed.Seconds()
	rep.Tasks = f.tasks
	rep.Measurements = f.measurements
	rep.Rounds = int64(len(f.submitted))
	rep.Polls = m.latency[wire.PathRound].count()
	rep.Plans = m.latency[wire.PathPlan].count()
	rep.Submits = m.latency[wire.PathSubmit].count()
	rep.Conflicts = m.conflicts.Load()
	rep.Errors = m.errors.Load()
	rep.Latency = map[string]summary{
		"poll":   m.latency[wire.PathRound].summarize(),
		"plan":   m.latency[wire.PathPlan].summarize(),
		"submit": m.latency[wire.PathSubmit].summarize(),
	}
	if elapsed > 0 {
		rep.RoundsPerSec = float64(rep.Rounds) / elapsed.Seconds()
		rep.MeasurementsPerSec = float64(rep.Measurements) / elapsed.Seconds()
	}
	if rep.Plans > 0 {
		rep.EmptyPlanShare = float64(rep.Plans-rep.Submits-rep.Conflicts) / float64(rep.Plans)
	}
	var prev int64
	for j, cum := range f.submitted {
		rep.SubmitsByQuarter[4*j/len(f.submitted)] += cum - prev
		prev = cum
	}

	fmt.Fprintf(out, "codec=%s workers=%d campaigns=%d rounds=%d (%.1f rounds/sec) measurements=%d (%.1f/sec) polls=%d plans=%d (%.1f%% empty) submits=%d conflicts=%d errors=%d\n",
		rep.Codec, rep.Workers, rep.Campaigns, rep.Rounds, rep.RoundsPerSec, rep.Measurements, rep.MeasurementsPerSec,
		rep.Polls, rep.Plans, 100*rep.EmptyPlanShare, rep.Submits, rep.Conflicts, rep.Errors)
	for _, name := range []string{"poll", "plan", "submit"} {
		s := rep.Latency[name]
		fmt.Fprintf(out, "  %-6s n=%-8d p50=%6dus p95=%6dus p99=%6dus max=%6dus\n",
			name, s.Count, s.P50Us, s.P95Us, s.P99Us, s.MaxUs)
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d protocol errors during run", rep.Errors)
	}
	return nil
}

// fleet is the run's state across its campaigns. Only run's goroutine
// touches it; the workers share only the meter.
type fleet struct {
	m          *meter
	client     *http.Client
	codec      client.Codec
	platform   string     // base URL; empty = self-host each campaign
	rng        *stats.RNG // worker start locations, then each board
	workers    int
	tasks      int // self-hosted board size; a given platform's open tasks
	area       float64
	r0         float64
	poll       time.Duration
	advanceMax time.Duration
	minRounds  int64
	deadline   *time.Timer
	expired    bool // the deadline has fired
	// submitted holds, per completed round, the accepted submits counted
	// when it was advanced.
	submitted    []int64
	measurements int64
}

// serve runs one campaign against the given platform, or a fresh
// self-hosted one it shuts down after, and adds the measurements the
// platform accepted meanwhile. It reports whether a self-hosted fleet ran
// out of work (see campaign).
func (f *fleet) serve(ctx context.Context) (spent bool, err error) {
	base := f.platform
	if base == "" {
		url, shutdown, err := selfHost(f.rng.Split(), f.tasks, f.area, f.r0)
		if err != nil {
			return false, err
		}
		// Closing the fleet's kept-alive connections first spares
		// Shutdown waiting out connections that never carried a request.
		defer func() {
			f.client.CloseIdleConnections()
			shutdown()
		}()
		base = url
	}
	cl := client.New(base, f.client, client.WithCodec(f.codec))
	// A fresh self-hosted platform starts at zero measurements.
	measured := 0
	if f.platform != "" {
		status, err := cl.Status(ctx)
		if err != nil {
			return false, err
		}
		f.tasks, measured = status.OpenTasks, status.TotalMeasurements
	}
	spent = f.campaign(ctx, cl)
	// The run's context may be canceled; the platform is still up.
	statusCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	status, err := cl.Status(statusCtx)
	if err != nil {
		return false, fmt.Errorf("final status: %w", err)
	}
	f.measurements += int64(status.TotalMeasurements - measured)
	return spent, nil
}

// campaign runs a fresh fleet of workers against the platform behind cl,
// with a coordinator that advances as soon as the whole fleet acted, or
// after the cadence timeout (stragglers must not stall the campaign). It
// returns when the run is over, or with spent = true when the fleet ran
// out of work on a self-hosted platform: after submitting in earlier
// rounds, a round in which every worker acted and none submitted. Then
// nobody moved and no task progressed, so demand and rewards stay put
// (the deadline is far off) and every later plan would be empty too. A
// campaign that never submitted goes on, as a fresh board of the same
// size would fare no better.
func (f *fleet) campaign(ctx context.Context, cl *client.Client) (spent bool) {
	runCtx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	// One client.Worker per goroutine, stepping until the campaign ends.
	// A step that returns without error acted in a round.
	var acted atomic.Int64
	sensor := func(taskID int64, _ geo.Point) float64 { return 50 + float64(taskID%16) }
	for i := 0; i < f.workers; i++ {
		cfg := client.WorkerConfig{
			Start:         geo.Pt(f.rng.Uniform(0, f.area), f.rng.Uniform(0, f.area)),
			PlatformPlans: true,
			Sensor:        sensor,
			PollInterval:  f.poll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := client.NewWorker(runCtx, cl, cfg)
			if err != nil {
				f.m.fail(runCtx)
				return
			}
			for runCtx.Err() == nil {
				done, err := w.Step(runCtx)
				switch {
				case err != nil:
					f.m.fail(runCtx)
				case done:
					return
				default:
					acted.Add(1)
				}
			}
		}()
	}

	submits := f.m.latency[wire.PathSubmit].count
	first := submits()
	lastAdvance, lastSubmits := time.Now(), first
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-runCtx.Done():
			return false
		case <-f.deadline.C:
			f.expired = true
		case <-tick.C:
		}
		if f.expired && int64(len(f.submitted)) >= f.minRounds {
			return false
		}
		allActed := acted.Load() >= int64(f.workers)
		if !allActed && time.Since(lastAdvance) < f.advanceMax {
			continue
		}
		if allActed && f.platform == "" && submits() == lastSubmits && lastSubmits > first {
			return true
		}
		acted.Store(0)
		adv, err := cl.Advance(runCtx)
		if err != nil {
			if runCtx.Err() != nil {
				return false
			}
			f.m.fail(runCtx)
			continue
		}
		lastAdvance, lastSubmits = time.Now(), submits()
		f.submitted = append(f.submitted, lastSubmits)
		if adv.Done {
			return false
		}
	}
}

// meter is the fleet's transport: it counts and times the round trips
// of every worker and the coordinator. Shutdown cancels the run context,
// and round trips it cuts short are not failures.
type meter struct {
	next http.RoundTripper
	// latency holds one histogram per timed path (poll, plan, submit),
	// each sample from sending the request until its body is closed. The
	// client closes a body after decoding it, so decoding is inside the
	// sample. Only 2xx responses are timed, so each histogram's count is
	// the path's successful calls. Read-only after construction.
	latency map[string]*hist
	// conflicts counts 409 responses to a submit: the coordinator advanced
	// while the worker walked, an expected race.
	conflicts atomic.Int64
	// errors counts every other failed round trip or non-2xx response,
	// retried attempts included, plus every error a caller saw.
	errors atomic.Int64
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := m.next.RoundTrip(req)
	switch {
	case err != nil:
		m.fail(req.Context())
	case resp.StatusCode/100 == 2:
		if h := m.latency[req.URL.Path]; h != nil {
			resp.Body = &timedBody{ReadCloser: resp.Body, h: h, t0: t0}
		}
	case resp.StatusCode == http.StatusConflict && req.URL.Path == wire.PathSubmit:
		m.conflicts.Add(1)
	default:
		m.errors.Add(1)
	}
	return resp, err
}

// CloseIdleConnections closes the wrapped transport's idle connections;
// http.Client.CloseIdleConnections reaches it through the meter.
func (m *meter) CloseIdleConnections() {
	if c, ok := m.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// fail counts an error unless ctx has ended.
func (m *meter) fail(ctx context.Context) {
	if ctx.Err() == nil {
		m.errors.Add(1)
	}
}

// timedBody records its round trip's latency when it is closed.
type timedBody struct {
	io.ReadCloser
	h  *hist
	t0 time.Time
}

func (b *timedBody) Close() error {
	b.h.observe(time.Since(b.t0).Microseconds())
	return b.ReadCloser.Close()
}

// selfHost serves a fresh platform on a loopback listener. Demand and
// deadline are effectively infinite so the campaign outlives the run.
func selfHost(rng *stats.RNG, nTasks int, area, r0 float64) (url string, shutdown func(), err error) {
	const horizon = 1 << 20
	tasks := make([]task.Task, nTasks)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       task.ID(i + 1),
			Location: geo.Pt(rng.Uniform(0, area), rng.Uniform(0, area)),
			Deadline: horizon,
			Required: horizon,
		}
	}
	mech, err := incentive.NewPaperOnDemand(incentive.RewardScheme{
		R0:     r0,
		Lambda: r0 / 4,
		Levels: demand.LevelMapper{N: 5},
	})
	if err != nil {
		return "", nil, err
	}
	platform, err := server.New(server.Config{
		Tasks:          tasks,
		Mechanism:      mech,
		Area:           geo.Square(area),
		NeighborRadius: area / 4,
		MaxRounds:      horizon,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return "", nil, err
	}
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: platform, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(listener) }()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return "http://" + listener.Addr().String(), shutdown, nil
}
