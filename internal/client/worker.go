package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"paydemand/internal/agent"
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// maxRetries bounds the consecutive transient-failure retries per request
// (network errors and 5xx responses), spaced PollInterval apart. 4xx
// responses are never retried.
const maxRetries = 3

// Sensor produces the measurement value a worker uploads when it performs
// a task (for example, a simulated dBA reading at the task's location).
type Sensor func(taskID int64, loc geo.Point) float64

// WorkerConfig parameterizes a Worker. Its plans come from one of two
// sources: local solving with Algorithm, or POST /v1/plan.
type WorkerConfig struct {
	// Start is the worker's initial location.
	Start geo.Point
	// Speed is the travel speed in m/s; zero means agent.DefaultSpeed.
	Speed float64
	// TimeBudget is the per-round time budget in seconds; zero means
	// agent.DefaultTimeBudget.
	TimeBudget float64
	// CostPerMeter is the movement cost; zero means
	// agent.DefaultCostPerMeter.
	CostPerMeter float64
	// Algorithm solves the per-round selection problem locally; nil means
	// the size-adaptive Auto solver. Unused with PlatformPlans.
	Algorithm selection.Algorithm
	// PlatformPlans asks POST /v1/plan for each round's plan instead. The
	// platform leaves out the tasks this worker contributed to, and may
	// solve against a round later than the polled one; the worker
	// submits for the plan's round.
	PlatformPlans bool
	// Sensor produces uploaded values; nil uploads zeros.
	Sensor Sensor
	// PollInterval is how often the worker re-fetches the round while
	// waiting for it to advance, and the pause between retries; zero
	// means 50 ms.
	PollInterval time.Duration
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
	lastSeen int
	// info is the last polled round, reused across polls.
	info wire.RoundInfo
	// done holds the tasks this worker was paid for; only local solving
	// reads it.
	done map[task.ID]bool
}

// NewWorker registers a new worker with the platform.
func NewWorker(ctx context.Context, c *Client, cfg WorkerConfig) (*Worker, error) {
	if cfg.Speed == 0 {
		cfg.Speed = agent.DefaultSpeed
	}
	if cfg.TimeBudget == 0 {
		cfg.TimeBudget = agent.DefaultTimeBudget
	}
	if cfg.CostPerMeter == 0 {
		cfg.CostPerMeter = agent.DefaultCostPerMeter
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = &selection.Auto{}
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 50 * time.Millisecond
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
		done:   make(map[task.ID]bool),
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
	if err := w.awaitNewRound(ctx); err != nil {
		return false, err
	}
	if w.info.Done {
		return true, nil
	}
	w.lastSeen = w.info.Round

	plan, err := w.plan(ctx)
	if err != nil {
		// The campaign ended after the poll; the next one reports it.
		if isConflict(err) {
			return false, nil
		}
		return false, err
	}
	// A plan solved against a later round is the worker's turn there.
	w.lastSeen = plan.Round
	if len(plan.Order) == 0 {
		return false, nil
	}

	// Every planned task is in the polled round, even for a plan solved
	// against a later round: tasks only ever close. The worker ends its
	// walk at the last one.
	req := wire.SubmitRequest{UserID: w.id, Round: plan.Round}
	for _, id := range plan.Order {
		i := slices.IndexFunc(w.info.Tasks, func(t wire.TaskInfo) bool { return t.ID == id })
		if i < 0 {
			return false, fmt.Errorf("worker %d: planned task %d is not in round %d", w.id, id, w.info.Round)
		}
		loc, value := w.info.Tasks[i].Location, 0.0
		if w.cfg.Sensor != nil {
			value = w.cfg.Sensor(int64(id), loc)
		}
		req.Measurements = append(req.Measurements, wire.Measurement{TaskID: id, Value: value})
		req.Location = loc
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
		if isConflict(err) {
			return false, nil
		}
		return false, fmt.Errorf("worker %d: submit: %w", w.id, err)
	}

	// Profit accounting uses what the platform actually paid: rejected
	// measurements (e.g. a task filled by a faster worker) earn nothing
	// but the travel was still spent.
	w.loc = req.Location
	w.profit += resp.TotalPaid - plan.Cost
	if !w.cfg.PlatformPlans {
		for _, res := range resp.Results {
			if res.Accepted {
				w.done[res.TaskID] = true
			}
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

// isConflict reports a 409 from the platform: the round advanced or the
// campaign ended while the worker planned or walked.
func isConflict(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
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

// withRetry runs fn with bounded retries on transient failures.
func (w *Worker) withRetry(ctx context.Context, fn func() error) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.cfg.PollInterval):
			}
		}
		if err = fn(); err == nil {
			return nil
		}
		if ctx.Err() != nil || !retriable(err) {
			return err
		}
	}
	return fmt.Errorf("worker %d: giving up after %d retries: %w", w.id, maxRetries, err)
}

// awaitNewRound polls into w.info until the platform publishes a round
// the worker has not acted in, or the campaign ends. Steady-state polls
// send the last seen round so the platform can answer with a tiny
// Unchanged response instead of re-serialising the task list. Transient
// fetch failures are retried.
func (w *Worker) awaitNewRound(ctx context.Context) error {
	for {
		err := w.withRetry(ctx, func() error {
			return w.client.RoundInto(ctx, w.lastSeen, &w.info)
		})
		if err != nil {
			return fmt.Errorf("worker %d: round: %w", w.id, err)
		}
		if !w.info.Unchanged && (w.info.Done || w.info.Round > w.lastSeen) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.cfg.PollInterval):
		}
	}
}

// plan returns the worker's plan for the polled round from the
// configured source. Only Round, Order and Cost are filled for a local
// solve.
func (w *Worker) plan(ctx context.Context) (plan wire.PlanResponse, err error) {
	if w.cfg.PlatformPlans {
		req := wire.PlanRequest{UserID: w.id, Location: w.loc,
			Speed: w.cfg.Speed, TimeBudget: w.cfg.TimeBudget, CostPerMeter: w.cfg.CostPerMeter}
		if err := w.withRetry(ctx, func() (err error) {
			plan, err = w.client.Plan(ctx, req)
			return err
		}); err != nil {
			return plan, fmt.Errorf("worker %d: plan: %w", w.id, err)
		}
		return plan, nil
	}
	problem := selection.Problem{
		Start:        w.loc,
		MaxDistance:  w.cfg.Speed * w.cfg.TimeBudget,
		CostPerMeter: w.cfg.CostPerMeter,
	}
	for _, t := range w.info.Tasks {
		if w.done[t.ID] {
			continue
		}
		problem.Candidates = append(problem.Candidates, selection.Candidate{
			ID:       t.ID,
			Location: t.Location,
			Reward:   t.Reward,
		})
	}
	solved, err := w.cfg.Algorithm.Select(problem)
	if err != nil {
		return plan, fmt.Errorf("worker %d: select: %w", w.id, err)
	}
	return wire.PlanResponse{Round: w.info.Round, Order: solved.Order, Cost: solved.Cost}, nil
}
