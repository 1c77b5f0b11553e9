package paydemand

import (
	"paydemand/internal/ahp"
	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/selection"
	"paydemand/internal/stats"
	"paydemand/internal/task"
)

// newRNG constructs the library's seeded random generator.
func newRNG(seed int64) *stats.RNG { return stats.NewRNG(seed) }

// Geometry primitives.
type (
	// Point is a planar location in meters.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Path is an ordered polyline of waypoints.
	Path = geo.Path
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// Square returns the square area with the given side length anchored at
// the origin; the paper's evaluation area is Square(3000).
func Square(side float64) Rect { return geo.Square(side) }

// Task model.
type (
	// Task is a location-dependent sensing task specification.
	Task = task.Task
	// TaskID identifies a task.
	TaskID = task.ID
	// TaskState is the mutable progress state of one task.
	TaskState = task.State
	// Board tracks every task in a campaign.
	Board = task.Board
)

// NewBoard creates a task board from specifications.
func NewBoard(tasks []Task) (*Board, error) { return task.NewBoard(tasks) }

// Task selection (Section V of the paper).
type (
	// SelectionProblem is one user's per-round task selection instance.
	SelectionProblem = selection.Problem
	// SelectionCandidate is one selectable task.
	SelectionCandidate = selection.Candidate
	// SelectionPlan is an ordered selection with its profit accounting.
	SelectionPlan = selection.Plan
	// SelectionAlgorithm solves SelectionProblems.
	SelectionAlgorithm = selection.Algorithm
	// DPSelector is the optimal O(m^2 2^m) dynamic program.
	DPSelector = selection.DP
	// GreedySelector is the O(m^2) heuristic.
	GreedySelector = selection.Greedy
	// TwoOptSelector is greedy followed by 2-opt order improvement.
	TwoOptSelector = selection.TwoOptGreedy
	// BeamSelector is the deterministic beam search with 2-opt / or-opt
	// polish; it never returns less profit than TwoOptSelector.
	BeamSelector = selection.Beam
	// AutoSelector dispatches per instance: DP on small filtered
	// instances, beam search in the mid band, greedy + 2-opt beyond.
	AutoSelector = selection.Auto
)

// Incentive mechanisms (Sections IV and VI).
type (
	// Mechanism prices sensing tasks round by round. Callers fill a
	// RoundInput and receive a task-ID-to-reward map back; a mechanism
	// rejects a missing input it uses with an error naming it.
	Mechanism = incentive.Mechanism
	// RoundInput is the per-round bundle of observations handed to a
	// mechanism: the task views plus the user locations, budget, bid
	// cost, mobility forecast and seeded stream.
	RoundInput = incentive.RoundInput
	// TaskView is the platform's per-task observation handed to a
	// mechanism.
	TaskView = incentive.TaskView
	// Bid is one worker's claimed cost for sensing this round.
	Bid = incentive.Bid
	// ForecastProvider predicts future neighbor counts for
	// mobility-aware mechanisms; implement it to plug in a custom
	// mobility model.
	ForecastProvider = incentive.ForecastProvider
	// MechanismRNG is the seeded deterministic stream consumed by
	// randomized mechanisms through RoundInput.RNG.
	MechanismRNG = stats.RNG
	// RewardScheme is the demand-level-to-reward rule of Eq. 7.
	RewardScheme = incentive.RewardScheme
	// OnDemandMechanism is the paper's demand-based dynamic mechanism.
	OnDemandMechanism = incentive.OnDemand
	// FixedMechanism is the fixed-reward baseline.
	FixedMechanism = incentive.Fixed
	// SteeredMechanism is Kawajiri et al.'s quality-driven mechanism.
	SteeredMechanism = incentive.Steered
	// AuctionMechanism is the budget-feasible truthful reverse auction.
	AuctionMechanism = incentive.Auction
	// IncentMeMechanism prices by expected coverage under mobility
	// uncertainty.
	IncentMeMechanism = incentive.IncentMe
)

// NewMechanismRNG builds the seeded stream randomized mechanisms consume
// through RoundInput.RNG.
func NewMechanismRNG(seed int64) *MechanismRNG { return stats.NewRNG(seed) }

// NewRewardScheme derives the budget-constrained reward scheme of Eq. 9:
// r0 = budget/totalRequired - lambda*(levels-1).
func NewRewardScheme(budget float64, totalRequired int, lambda float64, levels int) (RewardScheme, error) {
	return incentive.SchemeFromBudget(budget, totalRequired, lambda, demand.LevelMapper{N: levels})
}

// NewOnDemandMechanism builds the paper's mechanism with the Table I AHP
// weights.
func NewOnDemandMechanism(scheme RewardScheme) (*OnDemandMechanism, error) {
	return incentive.NewPaperOnDemand(scheme)
}

// NewFixedMechanism builds the fixed baseline. Its one-time random level
// draws come from the RoundInput.RNG stream the caller supplies each
// round (see NewMechanismRNG); a nil stream is an error.
func NewFixedMechanism(scheme RewardScheme) (*FixedMechanism, error) {
	return incentive.NewFixed(scheme)
}

// NewAuctionMechanism builds the budget-feasible truthful reverse
// auction; it bids for the RoundInput's users at its BidCostPerMeter and
// clears against its Budget, both of which must be positive.
func NewAuctionMechanism() *AuctionMechanism { return incentive.NewAuction() }

// NewIncentMeMechanism builds the expected-coverage mechanism; it
// requires a mobility forecast in its RoundInput.
func NewIncentMeMechanism(scheme RewardScheme) (*IncentMeMechanism, error) {
	return incentive.NewIncentMe(scheme)
}

// NewSteeredMechanism builds the steered baseline with the paper's raw
// constants (rewards in [5, 25]).
func NewSteeredMechanism() *SteeredMechanism { return incentive.NewSteered() }

// NewBudgetScaledSteeredMechanism builds the steered baseline scaled so
// its peak reward matches maxReward (the variant the comparison figures
// use; see DESIGN.md).
func NewBudgetScaledSteeredMechanism(maxReward float64) (*SteeredMechanism, error) {
	return incentive.NewBudgetScaledSteered(maxReward)
}

// Analytic Hierarchy Process (Section IV-B).
type (
	// PairwiseMatrix is a validated 3×3 AHP comparison matrix over the
	// three demand criteria.
	PairwiseMatrix = ahp.PairwiseMatrix
	// Consistency summarizes AHP judgment consistency (CI/CR).
	Consistency = ahp.Consistency
)

// NewPairwiseMatrix validates a as an AHP comparison matrix.
func NewPairwiseMatrix(a [3][3]float64) (*PairwiseMatrix, error) {
	return ahp.NewPairwiseMatrix(a)
}

// PaperAHPMatrix returns the paper's Table I example comparison matrix.
func PaperAHPMatrix() *PairwiseMatrix { return ahp.PaperExampleMatrix() }

// Demand indicator (Section IV-A/C).
type (
	// DemandConfig holds the demand-indicator weights and scales.
	DemandConfig = demand.Config
	// DemandInputs are one task's per-round observations.
	DemandInputs = demand.Inputs
	// LevelMapper maps normalized demand onto discrete levels (Table III).
	LevelMapper = demand.LevelMapper
)

// DefaultDemandConfig returns the paper-example demand configuration.
func DefaultDemandConfig() DemandConfig { return demand.DefaultConfig() }
