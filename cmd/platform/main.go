// Command platform runs the crowdsensing platform as an HTTP server. It
// generates a task campaign, prices it with the selected incentive
// mechanism, auto-advances sensing rounds on a fixed cadence, and serves
// the worker protocol (see internal/wire).
//
// Example:
//
//	platform -addr :8080 -tasks 20 -required 20 -round-every 2s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
	"paydemand/internal/server"
	"paydemand/internal/stats"
	"paydemand/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "platform:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled or the campaign's auto-advance loop
// ends. If ready is non-nil it receives the bound listen address once the
// server is accepting connections (used by tests to connect to :0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("platform", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		nTasks     = fs.Int("tasks", workload.DefaultNumTasks, "number of sensing tasks")
		required   = fs.Int("required", workload.DefaultRequired, "measurements per task")
		seed       = fs.Int64("seed", 1, "scenario seed")
		mechanism  = fs.String("mechanism", "on-demand", "incentive mechanism: on-demand | fixed | steered | auction | incentme")
		budget     = fs.Float64("budget", 1000, "reward budget B")
		lambda     = fs.Float64("lambda", 0.5, "per-level reward increment")
		levels     = fs.Int("levels", 5, "demand levels N")
		area       = fs.Float64("area", workload.DefaultAreaSide, "square area side in meters")
		radius     = fs.Float64("radius", 500, "neighbor radius R in meters")
		costPerM   = fs.Float64("cost-per-meter", 0.01, "worker travel cost per meter (feeds auction bids)")
		mobUncert  = fs.Float64("mobility-uncertainty", 0, "mobility forecast uncertainty in [0,1] (feeds incentme)")
		roundEvery = fs.Duration("round-every", 2*time.Second, "auto-advance cadence (0 = manual via POST /v1/advance)")
		maxRounds  = fs.Int("max-rounds", 0, "round horizon (0 = largest deadline)")
		statePath  = fs.String("state", "", "snapshot file: loaded at startup if present, written at shutdown (resumes campaigns across restarts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	rng := stats.NewRNG(*seed)
	sc, err := workload.Generate(rng, workload.Config{
		Area:     geo.Square(*area),
		NumTasks: *nTasks,
		NumUsers: 1, // locations unused; workers bring their own
		Required: *required,
	})
	if err != nil {
		return err
	}

	scheme, err := incentive.SchemeFromBudget(*budget, *nTasks**required, *lambda, demand.LevelMapper{N: *levels})
	if err != nil {
		return err
	}
	var mech incentive.Mechanism
	switch *mechanism {
	case "on-demand":
		mech, err = incentive.NewPaperOnDemand(scheme)
	case "fixed":
		mech, err = incentive.NewFixed(scheme)
	case "steered":
		mech, err = incentive.NewBudgetScaledSteered(scheme.MaxReward())
	case "auction":
		mech, err = incentive.NewAuction(), nil
	case "incentme":
		mech, err = incentive.NewIncentMe(scheme)
	default:
		return fmt.Errorf("unknown mechanism %q", *mechanism)
	}
	if err != nil {
		return err
	}
	// Workers register over the wire, so the forecast has no fleet size to
	// anchor an equilibrium on: it decays the observed neighbor count
	// toward zero at the configured uncertainty.
	forecast, err := mobility.NewForecast(mobility.Stationary{}, *mobUncert, sc.Area, *radius, 0)
	if err != nil {
		return err
	}

	platform, err := server.New(server.Config{
		Tasks:          sc.Tasks,
		Mechanism:      mech,
		Area:           sc.Area,
		NeighborRadius: *radius,
		MaxRounds:      *maxRounds,
		Logger:         logger,
		RNG:            rng.Split(),
		Budget:         *budget,
		CostPerMeter:   *costPerM,
		Forecast:       forecast,
	})
	if err != nil {
		return err
	}

	if *statePath != "" {
		if err := loadState(platform, *statePath, logger); err != nil {
			return err
		}
	}

	listener, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{
		Handler:           platform,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Auto-advance ticker.
	tickerDone := make(chan struct{})
	if *roundEvery > 0 {
		go func() {
			defer close(tickerDone)
			ticker := time.NewTicker(*roundEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					round, done, err := platform.Advance()
					if err != nil {
						logger.Error("advance", "err", err)
						return
					}
					if done {
						logger.Info("campaign finished", "round", round)
						return
					}
				}
			}
		}()
	} else {
		close(tickerDone)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("platform listening", "addr", listener.Addr().String(), "tasks", *nTasks, "mechanism", *mechanism)
		if err := httpServer.Serve(listener); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	if ready != nil {
		ready <- listener.Addr().String()
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-tickerDone
	if err := <-errCh; err != nil {
		return err
	}
	if *statePath != "" {
		if err := saveState(platform, *statePath, logger); err != nil {
			return err
		}
	}
	return nil
}

// loadState restores a snapshot file if one exists; a missing file means
// a fresh campaign.
func loadState(p *server.Platform, path string, logger *slog.Logger) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		logger.Info("no snapshot; starting fresh campaign", "path", path)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := server.ReadSnapshot(f)
	if err != nil {
		return err
	}
	if err := p.Restore(snap); err != nil {
		return err
	}
	logger.Info("campaign restored", "path", path, "round", snap.Round, "done", snap.Done)
	return nil
}

// saveState writes the campaign snapshot via a temp-and-rename so a crash
// mid-write cannot corrupt the previous snapshot.
func saveState(p *server.Platform, path string, logger *slog.Logger) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := p.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	logger.Info("campaign snapshot written", "path", path)
	return nil
}
