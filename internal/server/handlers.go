package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"paydemand/internal/aggregate"
	"paydemand/internal/engine"
	"paydemand/internal/geo"
	"paydemand/internal/selection"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// maxBodyBytes bounds request bodies; crowdsensing uploads are small.
const maxBodyBytes = 1 << 20

// budgetTol absorbs floating-point accumulation error in the hard budget
// comparison.
const budgetTol = 1e-9

// writeJSON writes v with the given status.
func (p *Platform) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		p.logger.Error("encode response", "err", err)
	}
}

// writeError writes a JSON error body.
func (p *Platform) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	p.writeJSON(w, status, wire.Error{Message: fmt.Sprintf(format, args...)})
}

// decode parses a bounded JSON request body: exactly one JSON value of the
// request type, with no unknown fields and nothing but whitespace after
// it.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// handleRegister assigns a worker ID and records the starting location.
func (p *Platform) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if err := decode(r, &req); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad register body: %v", err)
		return
	}
	if !req.Location.IsFinite() {
		p.writeError(w, http.StatusBadRequest, "non-finite location")
		return
	}
	id := p.register(req.Location)
	p.logger.Info("worker registered", "user_id", id)
	p.writeJSON(w, http.StatusOK, wire.RegisterResponse{UserID: id})
}

// register records a new worker at loc and returns its ID.
func (p *Platform) register(loc geo.Point) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers = append(p.workers, loc)
	return len(p.workers)
}

// handleRound publishes the current round. A round whose reprice failed
// is reported as an error rather than served as an empty task list: the
// platform has no prices, which is an operational fault, not a finished
// campaign.
//
// A poller that already holds the current round's prices says so with the
// X-Known-Round header (or ?known= for curl debugging) and gets a tiny
// Unchanged response instead of the full task list — steady-state polling
// between advances costs O(1) in both codecs. The short-circuit never
// fires on a done campaign (the worker must see Done to exit) or a failed
// reprice.
func (p *Platform) handleRound(w http.ResponseWriter, r *http.Request) {
	known := 0
	if v := r.Header.Get(wire.HeaderKnownRound); v != "" {
		known, _ = strconv.Atoi(v)
	} else if r.URL.RawQuery != "" {
		if v := r.URL.Query().Get("known"); v != "" {
			known, _ = strconv.Atoi(v)
		}
	}
	info, tasks, err := p.publishedRound(known)
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, "reprice failed: %v", err)
		return
	}
	writeMessage(p, w, r, &info, func(b []byte) []byte { return binary.AppendRoundInfo(b, &info) })
	if tasks == nil {
		return
	}
	if info.Tasks != nil {
		*tasks = info.Tasks[:0]
	}
	taskListPool.Put(tasks)
}

// publishedRound returns the round a poller that holds round known is
// served: the failed reprice's error, an Unchanged marker, or the full
// round with its task list built in a pooled slice. tasks is that pooled
// slice, which the caller returns to taskListPool; it is nil unless the
// full round was built.
func (p *Platform) publishedRound(known int) (info wire.RoundInfo, tasks *[]wire.TaskInfo, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.repriceErr; err != nil {
		return info, nil, err
	}
	if known > 0 && known == p.round && !p.done {
		return wire.RoundInfo{Round: p.round, Unchanged: true}, nil, nil
	}
	tasks = taskListPool.Get().(*[]wire.TaskInfo)
	return p.roundInfoLocked(*tasks), tasks, nil
}

// taskListPool recycles the task lists handleRound publishes: every
// worker polls the full list every round, so building it fresh per poll
// would allocate the whole list each time.
var taskListPool = sync.Pool{New: func() any { return new([]wire.TaskInfo) }}

// handleSubmit accepts a worker's measurements for the current round.
func (p *Platform) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitRequest
	if err := readMessage(r, &req, func(b []byte) error { return binary.DecodeSubmitRequest(b, &req) }); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	// Only TLV can carry these; a stored NaN or infinity would fail every
	// later estimate of the task and every snapshot.
	for _, m := range req.Measurements {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			p.writeError(w, http.StatusBadRequest, "task %d value %v, want finite", m.TaskID, m.Value)
			return
		}
	}
	// Only the board and worker bookkeeping runs under the mutex; the log
	// line and the response encode and write happen after it is released.
	resp, round, status, msg := p.submit(&req)
	if status != 0 {
		p.writeError(w, status, "%s", msg)
		return
	}
	p.logger.Info("submission",
		"user_id", req.UserID, "round", round,
		"uploaded", len(req.Measurements), "paid", resp.TotalPaid)
	writeMessage(p, w, r, &resp, func(b []byte) []byte { return binary.AppendSubmitResponse(b, &resp) })
}

// submit records one submission's measurements under p.mu and returns
// the response and the round they were recorded in. A rejected
// submission returns a non-zero HTTP status and its error message
// instead.
func (p *Platform) submit(req *wire.SubmitRequest) (resp wire.SubmitResponse, round, status int, msg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.knownLocked(req.UserID) {
		return resp, 0, http.StatusNotFound, fmt.Sprintf("unknown worker %d", req.UserID)
	}
	if p.done {
		return resp, 0, http.StatusConflict, "campaign is done"
	}
	if req.Round != p.round {
		return resp, 0, http.StatusConflict, fmt.Sprintf("stale round %d, current is %d", req.Round, p.round)
	}
	if req.Location.IsFinite() {
		p.workers[req.UserID-1] = req.Location
	}

	board := p.eng.Board()
	for _, m := range req.Measurements {
		res := wire.SubmitResult{TaskID: m.TaskID}
		switch {
		case board.Get(m.TaskID) == nil:
			res.Reason = "unknown task"
		default:
			reward, priced := p.eng.RewardFor(m.TaskID)
			if !priced {
				res.Reason = "task not published this round"
				break
			}
			if p.cfg.HardBudget > 0 && board.TotalRewardPaid()+reward > p.cfg.HardBudget+budgetTol {
				res.Reason = "budget exhausted"
				break
			}
			if err := p.eng.CommitPaid(req.UserID, m.TaskID, reward); err != nil {
				res.Reason = recordReason(err)
				break
			}
			res.Accepted = true
			res.Reward = reward
			resp.TotalPaid += reward
			p.contribs[m.TaskID] = append(p.contribs[m.TaskID], Contribution{
				User:  req.UserID,
				Value: m.Value,
			})
		}
		resp.Results = append(resp.Results, res)
	}
	return resp, p.round, 0, ""
}

// recordReason maps task.Record errors to stable protocol strings.
func recordReason(err error) string {
	switch {
	case errors.Is(err, task.ErrAlreadyContributed):
		return "already contributed"
	case errors.Is(err, task.ErrCompleted):
		return "task complete"
	case errors.Is(err, task.ErrExpired):
		return "task expired"
	default:
		return err.Error()
	}
}

// handlePlan solves a worker's task selection problem against the current
// round's published rewards. The round state (candidates and round
// number) is snapshotted under the lock, but the solve
// itself runs outside it on a pooled solver, so any number of workers can
// plan concurrently without serializing behind each other or blocking
// uploads.
func (p *Platform) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req wire.PlanRequest
	if err := readMessage(r, &req, func(b []byte) error { return binary.DecodePlanRequest(b, &req) }); err != nil {
		p.writeError(w, http.StatusBadRequest, "bad plan body: %v", err)
		return
	}
	if !req.Location.IsFinite() {
		p.writeError(w, http.StatusBadRequest, "non-finite location")
		return
	}
	// The comparisons are written so that NaN fails them too.
	if !(req.Speed > 0) || math.IsInf(req.Speed, 1) {
		p.writeError(w, http.StatusBadRequest, "speed %v, want finite > 0", req.Speed)
		return
	}
	if !(req.TimeBudget >= 0) || math.IsInf(req.TimeBudget, 1) {
		p.writeError(w, http.StatusBadRequest, "time budget %v, want finite >= 0", req.TimeBudget)
		return
	}
	if !(req.CostPerMeter >= 0) || math.IsInf(req.CostPerMeter, 1) {
		p.writeError(w, http.StatusBadRequest, "cost per meter %v, want finite >= 0", req.CostPerMeter)
		return
	}
	maxDistance := req.Speed * req.TimeBudget
	if math.IsInf(maxDistance, 1) {
		p.writeError(w, http.StatusBadRequest, "speed %v times time budget %v overflows", req.Speed, req.TimeBudget)
		return
	}

	problem, round, status := p.planProblem(&req, maxDistance)
	switch status {
	case http.StatusNotFound:
		p.writeError(w, status, "unknown worker %d", req.UserID)
		return
	case http.StatusConflict:
		p.writeError(w, status, "campaign is done")
		return
	}

	alg := p.planners.Get()
	plan, err := alg.Select(problem)
	p.planners.Put(alg)
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, "plan: %v", err)
		return
	}
	p.logger.Info("plan solved",
		"user_id", req.UserID, "round", round,
		"candidates", len(problem.Candidates), "selected", plan.Len(), "profit", plan.Profit)
	resp := wire.PlanResponse{
		Round:    round,
		Order:    plan.Order,
		Distance: plan.Distance,
		Reward:   plan.Reward,
		Cost:     plan.Cost,
		Profit:   plan.Profit,
	}
	writeMessage(p, w, r, &resp, func(b []byte) []byte { return binary.AppendPlanResponse(b, &resp) })
}

// planProblem moves the worker to the request's location and builds
// its selection problem against the current round, under p.mu. An
// unknown worker gets http.StatusNotFound and a done campaign
// http.StatusConflict, with no problem built; status is 0 otherwise.
func (p *Platform) planProblem(req *wire.PlanRequest, maxDistance float64) (problem selection.Problem, round, status int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.knownLocked(req.UserID) {
		return problem, 0, http.StatusNotFound
	}
	if p.done {
		return problem, 0, http.StatusConflict
	}
	p.workers[req.UserID-1] = req.Location
	// The candidate buffer is per-request (nil, so ProblemInto allocates):
	// the problem escapes the lock and must not share engine scratch.
	problem, _ = p.eng.ProblemInto(engine.Spec{
		Start:        req.Location,
		MaxDistance:  maxDistance,
		CostPerMeter: req.CostPerMeter,
	}, engine.Worker(req.UserID), nil)
	return problem, p.round, 0
}

// handleAdvance moves to the next round.
func (p *Platform) handleAdvance(w http.ResponseWriter, r *http.Request) {
	round, done, err := p.Advance()
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, "advance: %v", err)
		return
	}
	p.writeJSON(w, http.StatusOK, wire.AdvanceResponse{Round: round, Done: done})
}

// handleStatus reports the platform's metric snapshot, computed under the
// mutex and encoded after it is released. The open-task count reuses the
// engine's open snapshot instead of re-scanning the board, counting the
// snapshot entries still open — the same filtering /v1/round applies, so
// status and round agree on what is published.
func (p *Platform) handleStatus(w http.ResponseWriter, r *http.Request) {
	p.writeJSON(w, http.StatusOK, p.status())
}

// status computes the /v1/status response under p.mu.
func (p *Platform) status() wire.StatusResponse {
	p.mu.Lock()
	defer p.mu.Unlock()
	board := p.eng.Board()
	openTasks := 0
	for _, st := range p.eng.Open() {
		if st.OpenAt(p.round) {
			openTasks++
		}
	}
	return wire.StatusResponse{
		Round:                   p.round,
		Done:                    p.done,
		Workers:                 len(p.workers),
		OpenTasks:               openTasks,
		TotalMeasurements:       board.TotalReceived(),
		Coverage:                board.Coverage(),
		OverallCompleteness:     board.OverallCompleteness(),
		TotalRewardPaid:         board.TotalRewardPaid(),
		AvgRewardPerMeasurement: board.AverageRewardPerMeasurement(),
	}
}

// handleEstimate returns the aggregated estimate for ?task=ID.
func (p *Platform) handleEstimate(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("task")
	if raw == "" {
		p.writeError(w, http.StatusBadRequest, "missing task parameter")
		return
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		p.writeError(w, http.StatusBadRequest, "bad task id %q", raw)
		return
	}
	known, values := p.taskValues(task.ID(id))
	if !known {
		p.writeError(w, http.StatusNotFound, "unknown task %d", id)
		return
	}
	est, err := aggregate.Robust(values)
	if err != nil {
		if errors.Is(err, aggregate.ErrNoData) {
			p.writeError(w, http.StatusNotFound, "task %d has no measurements", id)
			return
		}
		p.writeError(w, http.StatusInternalServerError, "aggregate: %v", err)
		return
	}
	p.writeJSON(w, http.StatusOK, wire.EstimateResponse{
		TaskID:        task.ID(id),
		Value:         est.Value,
		N:             est.N,
		Rejected:      est.Rejected,
		StdDev:        est.StdDev,
		MarginOfError: est.MarginOfError,
	})
}

// taskValues reports whether id is on the board and returns a copy of
// its uploaded values. The board check reads under the mutex: Restore
// swaps the board.
func (p *Platform) taskValues(id task.ID) (known bool, values []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Board().Get(id) != nil, p.valuesLocked(id)
}

// handleHealth is the liveness probe.
func (p *Platform) handleHealth(w http.ResponseWriter, r *http.Request) {
	p.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
