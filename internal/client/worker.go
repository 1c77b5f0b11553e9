package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/wire"
)

// Sensor produces the measurement value a worker uploads when it performs
// a task (for example, a simulated dBA reading at the task's location).
type Sensor func(taskID int64, loc geo.Point) float64

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Start is the worker's initial location.
	Start geo.Point
	// Speed is the travel speed in m/s; zero means the paper's 2.
	Speed float64
	// TimeBudget is the per-round time budget in seconds; zero means the
	// paper's 600.
	TimeBudget float64
	// CostPerMeter is the movement cost; zero means the paper's 0.002.
	CostPerMeter float64
	// Algorithm solves the per-round selection problem; nil means the
	// size-adaptive Auto solver.
	Algorithm selection.Algorithm
	// Sensor produces uploaded values; nil uploads zeros.
	Sensor Sensor
	// PollInterval is how often the worker re-fetches the round while
	// waiting for it to advance; zero means 50 ms.
	PollInterval time.Duration
	// MaxRetries bounds the consecutive transient-failure retries per
	// request (network errors and 5xx responses); zero means 3. 4xx
	// responses are never retried.
	MaxRetries int
	// RetryDelay is the pause between retries; zero means PollInterval.
	RetryDelay time.Duration
}

// Worker runs the distributed WST loop against a platform: fetch the
// published round, select tasks to maximize profit under the travel
// budget, walk the plan, and upload measurements.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	id       int
	loc      geo.Point
	profit   float64
	done     map[int64]bool
	lastSeen int
}

// NewWorker registers a new worker with the platform.
func NewWorker(ctx context.Context, c *Client, cfg WorkerConfig) (*Worker, error) {
	if cfg.Speed == 0 {
		cfg.Speed = 2
	}
	if cfg.TimeBudget == 0 {
		cfg.TimeBudget = 600
	}
	if cfg.CostPerMeter == 0 {
		cfg.CostPerMeter = 0.002
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = &selection.Auto{}
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryDelay == 0 {
		cfg.RetryDelay = cfg.PollInterval
	}
	id, err := c.Register(ctx, cfg.Start)
	if err != nil {
		return nil, fmt.Errorf("worker: register: %w", err)
	}
	return &Worker{
		cfg:    cfg,
		client: c,
		id:     id,
		loc:    cfg.Start,
		done:   make(map[int64]bool),
	}, nil
}

// ID returns the platform-assigned worker ID.
func (w *Worker) ID() int { return w.id }

// Location returns the worker's current location.
func (w *Worker) Location() geo.Point { return w.loc }

// Profit returns the worker's accumulated profit.
func (w *Worker) Profit() float64 { return w.profit }

// Step performs at most one round: it waits for a round it has not acted
// in, selects and uploads, and returns done=true once the campaign ends.
func (w *Worker) Step(ctx context.Context) (done bool, err error) {
	info, err := w.awaitNewRound(ctx)
	if err != nil {
		return false, err
	}
	if info.Done {
		return true, nil
	}
	w.lastSeen = info.Round

	plan, err := w.plan(info)
	if err != nil {
		return false, err
	}
	if plan.Empty() {
		return false, nil
	}

	req := wire.SubmitRequest{
		UserID: w.id,
		Round:  info.Round,
	}
	for _, id := range plan.Order {
		value := 0.0
		loc := w.loc
		for _, t := range info.Tasks {
			if t.ID == id {
				loc = t.Location
				break
			}
		}
		if w.cfg.Sensor != nil {
			value = w.cfg.Sensor(int64(id), loc)
		}
		req.Measurements = append(req.Measurements, wire.Measurement{TaskID: id, Value: value})
	}
	if end, ok := plan.Path.End(); ok {
		req.Location = end
	} else {
		req.Location = w.loc
	}

	var resp wire.SubmitResponse
	err = w.withRetry(ctx, func() error {
		var serr error
		resp, serr = w.client.Submit(ctx, req)
		return serr
	})
	if err != nil {
		// A stale-round conflict means the platform advanced while we were
		// walking; skip this round rather than fail. A replay within the
		// same round is never paid twice: the platform's once-per-user
		// rule answers "already contributed" with reward 0. But if the
		// first attempt was accepted and only its response lost, the
		// replay's zero is all the worker sees, so its profit and done
		// books miss the original payment.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
			return false, nil
		}
		return false, fmt.Errorf("worker %d: submit: %w", w.id, err)
	}

	// Profit accounting uses what the platform actually paid: rejected
	// measurements (e.g. a task filled by a faster worker) earn nothing
	// but the travel was still spent.
	w.loc = req.Location
	w.profit += resp.TotalPaid - plan.Cost
	for _, res := range resp.Results {
		if res.Accepted {
			w.done[int64(res.TaskID)] = true
		}
	}
	return false, nil
}

// Run steps until the campaign ends or the context is canceled.
func (w *Worker) Run(ctx context.Context) error {
	for {
		done, err := w.Step(ctx)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
}

// retriable reports whether an error is worth retrying: anything except a
// definitive 4xx platform response (context cancellation is handled by
// the retry loop itself).
func retriable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	return true
}

// withRetry runs fn with the configured bounded retries on transient
// failures.
func (w *Worker) withRetry(ctx context.Context, fn func() error) error {
	var err error
	for attempt := 0; attempt <= w.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.cfg.RetryDelay):
			}
		}
		if err = fn(); err == nil {
			return nil
		}
		if ctx.Err() != nil || !retriable(err) {
			return err
		}
	}
	return fmt.Errorf("worker %d: giving up after %d retries: %w", w.id, w.cfg.MaxRetries, err)
}

// awaitNewRound polls until the platform publishes a round the worker has
// not acted in, or the campaign ends. Steady-state polls send the last
// seen round so the platform can answer with a tiny Unchanged response
// instead of re-serialising the task list. Transient fetch failures are
// retried.
func (w *Worker) awaitNewRound(ctx context.Context) (wire.RoundInfo, error) {
	for {
		var info wire.RoundInfo
		err := w.withRetry(ctx, func() error {
			var rerr error
			info, rerr = w.client.RoundKnown(ctx, w.lastSeen)
			return rerr
		})
		if err != nil {
			return wire.RoundInfo{}, fmt.Errorf("worker %d: round: %w", w.id, err)
		}
		if !info.Unchanged && (info.Done || info.Round > w.lastSeen) {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return wire.RoundInfo{}, ctx.Err()
		case <-time.After(w.cfg.PollInterval):
		}
	}
}

// plan solves the worker's selection problem for the published round.
func (w *Worker) plan(info wire.RoundInfo) (selection.Plan, error) {
	problem := selection.Problem{
		Start:        w.loc,
		MaxDistance:  w.cfg.Speed * w.cfg.TimeBudget,
		CostPerMeter: w.cfg.CostPerMeter,
	}
	for _, t := range info.Tasks {
		if w.done[int64(t.ID)] {
			continue
		}
		problem.Candidates = append(problem.Candidates, selection.Candidate{
			ID:       t.ID,
			Location: t.Location,
			Reward:   t.Reward,
		})
	}
	plan, err := w.cfg.Algorithm.Select(problem)
	if err != nil {
		return selection.Plan{}, fmt.Errorf("worker %d: select: %w", w.id, err)
	}
	return plan, nil
}
