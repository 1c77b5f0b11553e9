// Package wire defines the JSON messages of the platform/worker HTTP
// protocol: the network realization of the paper's WST-mode loop in which
// the platform publishes priced tasks each round and workers select,
// perform, and upload in a distributed way.
package wire

import (
	"paydemand/internal/geo"
	"paydemand/internal/task"
)

// API paths served by the platform.
const (
	PathRegister = "/v1/register"
	PathRound    = "/v1/round"
	PathSubmit   = "/v1/submit"
	PathAdvance  = "/v1/advance"
	PathStatus   = "/v1/status"
	PathHealth   = "/v1/healthz"
	PathEstimate = "/v1/estimate"
	PathPlan     = "/v1/plan"
)

// PlanRequest asks the platform to solve a worker's task selection problem
// (POST /v1/plan): thin clients without a local solver send their position
// and budget and receive a profit-maximizing visiting order over the
// current round's published tasks.
type PlanRequest struct {
	UserID int `json:"user_id"`
	// Location is the worker's current position (also refreshes the
	// platform's worker registry, like an upload does).
	Location geo.Point `json:"location"`
	// Speed is the travel speed in m/s.
	Speed float64 `json:"speed"`
	// TimeBudget is the remaining time budget for this round in seconds.
	TimeBudget float64 `json:"time_budget"`
	// CostPerMeter is the worker's movement cost in $/m.
	CostPerMeter float64 `json:"cost_per_meter"`
}

// PlanResponse is the solved plan. An empty Order means no
// positive-profit plan exists for the request's budget.
type PlanResponse struct {
	// Round is the round the plan was solved against; submit with this
	// round or re-plan after an advance.
	Round int `json:"round"`
	// Order is the recommended task visiting order.
	Order []task.ID `json:"order"`
	// Distance, Reward, Cost, Profit are the plan's accounting at the
	// round's published rewards.
	Distance float64 `json:"distance"`
	Reward   float64 `json:"reward"`
	Cost     float64 `json:"cost"`
	Profit   float64 `json:"profit"`
}

// RegisterRequest announces a worker and its starting location.
type RegisterRequest struct {
	Location geo.Point `json:"location"`
}

// RegisterResponse returns the platform-assigned worker ID.
type RegisterResponse struct {
	UserID int `json:"user_id"`
}

// TaskInfo is one published task with this round's reward.
type TaskInfo struct {
	ID       task.ID   `json:"id"`
	Location geo.Point `json:"location"`
	Deadline int       `json:"deadline"`
	Required int       `json:"required"`
	Received int       `json:"received"`
	Reward   float64   `json:"reward"`
}

// RoundInfo is the platform's published state for the current round.
type RoundInfo struct {
	// Round is the current 1-based sensing round.
	Round int `json:"round"`
	// Tasks are the open tasks with their current rewards.
	Tasks []TaskInfo `json:"tasks"`
	// Done reports that the campaign has ended (every task completed or
	// expired, or the round horizon passed).
	Done bool `json:"done"`
	// Unchanged reports that the round the poller said it already knows
	// (the known_round short-circuit, see HeaderKnownRound) is still
	// current: Tasks is omitted and the worker should keep using the
	// prices it has. Never set on full responses.
	Unchanged bool `json:"unchanged,omitempty"`
}

// HeaderKnownRound is the optional request header (or "known" query
// parameter) a /v1/round poller sends with the round number it already
// holds prices for. When that round is still current the platform answers
// with a tiny Unchanged response instead of re-serializing the full task
// list — steady-state polling between advances costs O(1), not O(tasks).
const HeaderKnownRound = "X-Known-Round"

// Measurement is one sensed value a worker uploads for a task.
type Measurement struct {
	TaskID task.ID `json:"task_id"`
	// Value is the sensed reading (application-defined units, e.g. dBA for
	// noise mapping).
	Value float64 `json:"value"`
}

// SubmitRequest uploads a worker's measurements for one round.
type SubmitRequest struct {
	UserID int `json:"user_id"`
	// Round must match the platform's current round.
	Round int `json:"round"`
	// Measurements are the sensed values in the worker's visiting order.
	Measurements []Measurement `json:"measurements"`
	// Location is the worker's end-of-round location, used for
	// neighbor-count demand updates.
	Location geo.Point `json:"location"`
}

// SubmitResult reports the outcome for one uploaded measurement.
type SubmitResult struct {
	TaskID task.ID `json:"task_id"`
	// Accepted tells whether the measurement was recorded and paid.
	Accepted bool `json:"accepted"`
	// Reward is the amount paid (zero when rejected).
	Reward float64 `json:"reward"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
}

// SubmitResponse acknowledges an upload.
type SubmitResponse struct {
	Results []SubmitResult `json:"results"`
	// TotalPaid is the sum of accepted rewards.
	TotalPaid float64 `json:"total_paid"`
}

// AdvanceResponse reports the round transition.
type AdvanceResponse struct {
	// Round is the new current round.
	Round int `json:"round"`
	// Done reports that the campaign has ended.
	Done bool `json:"done"`
}

// StatusResponse is the platform's metrics snapshot.
type StatusResponse struct {
	Round                   int     `json:"round"`
	Done                    bool    `json:"done"`
	Workers                 int     `json:"workers"`
	OpenTasks               int     `json:"open_tasks"`
	TotalMeasurements       int     `json:"total_measurements"`
	Coverage                float64 `json:"coverage"`
	OverallCompleteness     float64 `json:"overall_completeness"`
	TotalRewardPaid         float64 `json:"total_reward_paid"`
	AvgRewardPerMeasurement float64 `json:"avg_reward_per_measurement"`
}

// EstimateResponse is the platform's aggregated estimate for one task
// (GET /v1/estimate?task=ID).
type EstimateResponse struct {
	TaskID task.ID `json:"task_id"`
	// Value is the aggregated estimate.
	Value float64 `json:"value"`
	// N is the number of measurements used after outlier rejection.
	N int `json:"n"`
	// Rejected is the number of discarded measurements.
	Rejected int `json:"rejected"`
	// StdDev is the sample standard deviation of the used measurements.
	StdDev float64 `json:"std_dev"`
	// MarginOfError is the ~95% confidence half-width.
	MarginOfError float64 `json:"margin_of_error"`
}

// Error is the JSON error body returned with non-2xx statuses.
type Error struct {
	Message string `json:"error"`
}
