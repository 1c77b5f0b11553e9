// Command loadgen drives a platform with N simulated workers in a closed
// loop — each worker polls the round (with the known-round short
// circuit), requests a plan, submits measurements from the plan's last
// task, where it then stands, and immediately polls again — while a
// coordinator advances the round as soon as every worker has acted. It
// reports round throughput and per-endpoint latency percentiles, the
// harness behind BENCH_wire.json's JSON-vs-TLV serving comparison.
//
// With no -platform it self-hosts one on a loopback listener: a long
// campaign (huge per-task demand and deadline) so the round loop runs at
// full speed for the whole -duration.
//
// Example:
//
//	loadgen -workers 1000 -codec tlv -duration 10s -out bench.json
package main

import (
	"context"
	"encoding/json"
	"errors"
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
	Unchanged    int64              `json:"unchanged_polls"`
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
		poll        = fs.Duration("poll", time.Millisecond, "pause between unchanged polls")
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

	cl := client.New(base, nil,
		client.WithCodec(codecOpt),
		client.WithMaxIdleConnsPerHost(*workers))

	var (
		polls, unchanged, plans, submits int64
		conflicts, protoErrors, rounds   int64
		acted                            int64
		pollH, planH, submitH            hist
	)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Worker fleet: poll → plan → submit → signal, forever.
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		start := geo.Pt(rng.Uniform(0, *area), rng.Uniform(0, *area))
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := cl.Register(runCtx, start)
			if err != nil {
				if runCtx.Err() == nil {
					atomic.AddInt64(&protoErrors, 1)
				}
				return
			}
			var info wire.RoundInfo
			lastSeen := 0
			loc := start
			taskLoc := map[task.ID]geo.Point{}
			for runCtx.Err() == nil {
				t0 := time.Now()
				err := cl.RoundInto(runCtx, lastSeen, &info)
				if err != nil {
					if runCtx.Err() == nil {
						atomic.AddInt64(&protoErrors, 1)
					}
					select {
					case <-runCtx.Done():
						return
					case <-time.After(*poll):
					}
					continue
				}
				pollH.observe(time.Since(t0).Microseconds())
				atomic.AddInt64(&polls, 1)
				if info.Done {
					return
				}
				if info.Unchanged || info.Round <= lastSeen {
					atomic.AddInt64(&unchanged, 1)
					select {
					case <-runCtx.Done():
						return
					case <-time.After(*poll):
					}
					continue
				}
				lastSeen = info.Round
				for _, tk := range info.Tasks {
					taskLoc[tk.ID] = tk.Location
				}
				var ok bool
				ok, loc = workerAct(runCtx, cl, id, loc, taskLoc, &planH, &submitH,
					&plans, &submits, &conflicts, &protoErrors)
				if ok {
					atomic.AddInt64(&acted, 1)
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
		allActed := atomic.LoadInt64(&acted) >= int64(*workers)
		if expired && atomic.LoadInt64(&rounds) >= *minRounds {
			break
		}
		if !allActed && time.Since(lastAdvance) < *advanceMax {
			continue
		}
		atomic.StoreInt64(&acted, 0)
		adv, err := cl.Advance(runCtx)
		if err != nil {
			if runCtx.Err() != nil {
				break
			}
			atomic.AddInt64(&protoErrors, 1)
			continue
		}
		atomic.AddInt64(&rounds, 1)
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
		Tasks:       *nTasks,
		DurationSec: elapsed.Seconds(),
		Rounds:      rounds,
		Polls:       polls,
		Unchanged:   unchanged,
		Plans:       plans,
		Submits:     submits,
		Conflicts:   conflicts,
		Errors:      protoErrors,
		Latency: map[string]summary{
			"poll":   pollH.summarize(),
			"plan":   planH.summarize(),
			"submit": submitH.summarize(),
		},
	}
	if elapsed > 0 {
		rep.RoundsPerSec = float64(rounds) / elapsed.Seconds()
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
	if protoErrors > 0 {
		return fmt.Errorf("%d protocol errors during run", protoErrors)
	}
	return nil
}

// workerAct plans from loc and submits for the current round, reporting
// whether the worker counts as having acted (plan/submit attempted, even
// if the submit lost a round-advance race) and where it stands after. A
// worker walks its plan: it submits from the plan's last task, looked up
// in taskLoc (the locations of the tasks it has polled), and stands there
// once the submit is accepted. A worker that never moved would run out of
// reachable tasks it has not yet measured.
func workerAct(ctx context.Context, cl *client.Client, id int, loc geo.Point, taskLoc map[task.ID]geo.Point,
	planH, submitH *hist, plans, submits, conflicts, protoErrors *int64) (bool, geo.Point) {
	t0 := time.Now()
	plan, err := cl.Plan(ctx, wire.PlanRequest{
		UserID:       id,
		Location:     loc,
		Speed:        2,
		TimeBudget:   600,
		CostPerMeter: 0.002,
	})
	if err != nil {
		if ctx.Err() == nil {
			atomic.AddInt64(protoErrors, 1)
		}
		return false, loc
	}
	planH.observe(time.Since(t0).Microseconds())
	atomic.AddInt64(plans, 1)
	if len(plan.Order) == 0 {
		return true, loc
	}
	// The plan's tasks are open in its round, so they were open in every
	// earlier round too, the polled one included.
	end, ok := taskLoc[plan.Order[len(plan.Order)-1]]
	if !ok {
		atomic.AddInt64(protoErrors, 1)
		return false, loc
	}

	req := wire.SubmitRequest{UserID: id, Round: plan.Round, Location: end}
	for _, taskID := range plan.Order {
		req.Measurements = append(req.Measurements,
			wire.Measurement{TaskID: taskID, Value: 50 + float64(taskID%16)})
	}
	t0 = time.Now()
	if _, err := cl.Submit(ctx, req); err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
			// The coordinator advanced mid-walk; an expected race, not a
			// protocol failure. The platform did not record the walk.
			atomic.AddInt64(conflicts, 1)
			return true, loc
		}
		if ctx.Err() == nil {
			atomic.AddInt64(protoErrors, 1)
		}
		return false, loc
	}
	submitH.observe(time.Since(t0).Microseconds())
	atomic.AddInt64(submits, 1)
	return true, end
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
