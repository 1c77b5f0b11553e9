// Command worker runs one or more simulated mobile users against a
// platform. Each worker registers at a random location, then repeatedly
// fetches the published round, selects a profit-maximizing set of tasks
// under its travel budget, and uploads simulated sensor readings.
//
// Example:
//
//	worker -platform http://localhost:8080 -count 50
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"paydemand/internal/client"
	"paydemand/internal/geo"
	"paydemand/internal/sim"
	"paydemand/internal/stats"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// run drives the worker fleet until the campaign ends or ctx is canceled.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		platformURL = fs.String("platform", "http://localhost:8080", "platform base URL")
		count       = fs.Int("count", 10, "number of workers to simulate")
		seed        = fs.Int64("seed", 1, "placement seed")
		area        = fs.Float64("area", 3000, "square area side for initial placement")
		speed       = fs.Float64("speed", 2, "walking speed m/s")
		timeBudget  = fs.Float64("time-budget", 600, "per-round time budget seconds")
		algorithm   = fs.String("algorithm", "auto", "selection algorithm: dp | greedy | auto | greedy+2opt | beam")
		poll        = fs.Duration("poll", 200*time.Millisecond, "round poll interval")
		codec       = fs.String("codec", "json", "wire codec for the hot endpoints: json | tlv")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("count %d, want >= 1", *count)
	}
	codecOpt, err := client.ParseCodec(*codec)
	if err != nil {
		return err
	}
	alg, err := sim.ParseAlgorithm(*algorithm)
	if err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	c := client.New(*platformURL, nil,
		client.WithCodec(codecOpt),
		client.WithMaxIdleConnsPerHost(*count))
	rng := stats.NewRNG(*seed)

	// Simulated noise sensor: a smooth spatial field plus per-reading
	// jitter, in dBA.
	var sensorMu sync.Mutex
	sensorRNG := rng.Split()
	sensor := func(_ int64, loc geo.Point) float64 {
		sensorMu.Lock()
		defer sensorMu.Unlock()
		base := 50 + 20*math.Sin(loc.X/700)*math.Cos(loc.Y/900)
		return base + sensorRNG.NormFloat64()*2
	}

	var wg sync.WaitGroup
	errCh := make(chan error, *count)
	for i := 0; i < *count; i++ {
		// Solvers keep per-instance scratch, so each worker gets its own.
		solver, err := sim.Config{Algorithm: alg}.NewAlgorithm()
		if err != nil {
			return err
		}
		w, err := client.NewWorker(ctx, c, client.WorkerConfig{
			Start:        geo.Pt(rng.Uniform(0, *area), rng.Uniform(0, *area)),
			Speed:        *speed,
			TimeBudget:   *timeBudget,
			Algorithm:    solver,
			Sensor:       sensor,
			PollInterval: *poll,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				errCh <- err
				return
			}
			logger.Info("worker finished", "id", w.ID(), "profit", w.Profit())
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}

	status, err := c.Status(context.Background())
	if err != nil {
		return err
	}
	logger.Info("campaign summary",
		"coverage", status.Coverage,
		"completeness", status.OverallCompleteness,
		"measurements", status.TotalMeasurements,
		"reward_paid", status.TotalRewardPaid)
	return nil
}
