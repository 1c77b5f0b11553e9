// Command loadgen drives a platform with N simulated workers in a closed
// loop — each is a client.Worker on POST /v1/plan, so it polls the round
// (with the known-round short circuit), requests a plan, submits
// measurements from the plan's last task, where it then stands, and
// immediately polls again — while a coordinator advances the round as
// soon as every worker has acted. It reports round throughput and
// per-endpoint latency percentiles, counted and timed by its HTTP
// transport: the harness behind BENCH_wire.json's JSON-vs-TLV serving
// comparison.
//
// With no -platform it self-hosts one on a loopback listener: a long
// campaign (huge per-task demand and deadline) so the round loop runs at
// full speed for the whole -duration. With -platform the report's task
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
	Codec        string             `json:"codec"`
	Workers      int                `json:"workers"`
	Tasks        int                `json:"tasks"`
	DurationSec  float64            `json:"duration_sec"`
	Rounds       int64              `json:"rounds"`
	RoundsPerSec float64            `json:"rounds_per_sec"`
	Polls        int64              `json:"polls"`
	Plans        int64              `json:"plans"`
	Submits      int64              `json:"submits"`
	Conflicts    int64              `json:"conflicts"`
	Errors       int64              `json:"errors"`
	Latency      map[string]summary `json:"latency"`
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

	rng := stats.NewRNG(*seed)
	base := *platformURL
	if base == "" {
		url, shutdown, err := selfHost(rng.Split(), *nTasks, *area, *r0)
		if err != nil {
			return err
		}
		defer shutdown()
		base = url
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
	cl := client.New(base, &http.Client{Timeout: 10 * time.Second, Transport: m}, client.WithCodec(codecOpt))

	tasks := *nTasks
	if *platformURL != "" {
		status, err := cl.Status(ctx)
		if err != nil {
			return err
		}
		tasks = status.OpenTasks
	}

	var rounds, acted atomic.Int64
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Worker fleet: one client.Worker per goroutine, stepping until the run
	// ends. A step that returns without error acted in a round.
	sensor := func(taskID int64, _ geo.Point) float64 { return 50 + float64(taskID%16) }
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		cfg := client.WorkerConfig{
			Start:         geo.Pt(rng.Uniform(0, *area), rng.Uniform(0, *area)),
			PlatformPlans: true,
			Sensor:        sensor,
			PollInterval:  *poll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := client.NewWorker(runCtx, cl, cfg)
			if err != nil {
				m.fail(runCtx)
				return
			}
			for runCtx.Err() == nil {
				done, err := w.Step(runCtx)
				switch {
				case err != nil:
					m.fail(runCtx)
				case done:
					return
				default:
					acted.Add(1)
				}
			}
		}()
	}

	// Coordinator: advance as soon as the whole fleet acted, or after the
	// cadence timeout (stragglers must not stall the campaign).
	began := time.Now()
	deadline := time.NewTimer(*duration)
	defer deadline.Stop()
	expired := false
	lastAdvance := time.Now()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
coordinate:
	for {
		select {
		case <-runCtx.Done():
			break coordinate
		case <-deadline.C:
			expired = true
		case <-tick.C:
		}
		allActed := acted.Load() >= int64(*workers)
		if expired && rounds.Load() >= *minRounds {
			break
		}
		if !allActed && time.Since(lastAdvance) < *advanceMax {
			continue
		}
		acted.Store(0)
		adv, err := cl.Advance(runCtx)
		if err != nil {
			if runCtx.Err() != nil {
				break
			}
			m.fail(runCtx)
			continue
		}
		rounds.Add(1)
		lastAdvance = time.Now()
		if adv.Done {
			break
		}
	}
	elapsed := time.Since(began)
	cancel()
	wg.Wait()

	rep := report{
		Codec:       *codec,
		Workers:     *workers,
		Tasks:       tasks,
		DurationSec: elapsed.Seconds(),
		Rounds:      rounds.Load(),
		Polls:       m.latency[wire.PathRound].count(),
		Plans:       m.latency[wire.PathPlan].count(),
		Submits:     m.latency[wire.PathSubmit].count(),
		Conflicts:   m.conflicts.Load(),
		Errors:      m.errors.Load(),
		Latency: map[string]summary{
			"poll":   m.latency[wire.PathRound].summarize(),
			"plan":   m.latency[wire.PathPlan].summarize(),
			"submit": m.latency[wire.PathSubmit].summarize(),
		},
	}
	if elapsed > 0 {
		rep.RoundsPerSec = float64(rep.Rounds) / elapsed.Seconds()
	}

	fmt.Fprintf(out, "codec=%s workers=%d rounds=%d (%.1f rounds/sec) polls=%d plans=%d submits=%d conflicts=%d errors=%d\n",
		rep.Codec, rep.Workers, rep.Rounds, rep.RoundsPerSec, rep.Polls, rep.Plans, rep.Submits, rep.Conflicts, rep.Errors)
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
