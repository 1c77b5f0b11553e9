// Package sim implements the round-based crowdsensing simulation of the
// paper's Fig. 1: each sensing round the platform updates rewards and
// publishes the open tasks; mobile users select tasks in a distributed way
// (WST mode), perform them, and upload measurements; the platform then
// recomputes task demands for the next round.
package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"paydemand/internal/agent"
	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/mobility"
	"paydemand/internal/selection"
	"paydemand/internal/workload"
)

// MechanismKind selects the incentive mechanism under test.
type MechanismKind int

// The mechanisms compared in the paper plus the ablation presets.
const (
	// MechanismOnDemand is the paper's demand-based dynamic mechanism with
	// the Table I AHP weights.
	MechanismOnDemand MechanismKind = iota + 1
	// MechanismFixed draws a random demand level per task once and never
	// changes the reward.
	MechanismFixed
	// MechanismSteered is Kawajiri et al.'s quality-driven decay (Eq. 13),
	// scaled to the same reward budget as the other mechanisms so the
	// comparison is fair (the paper's Fig. 9(b) plots steered on this
	// scale; see DESIGN.md "Substitutions").
	MechanismSteered
	// MechanismSteeredRaw is Eq. 13 with the unscaled paper constants
	// (rewards in [5, 25]).
	MechanismSteeredRaw
	// MechanismEqualWeights is on-demand without AHP (uniform weights).
	MechanismEqualWeights
	// MechanismDeadlineOnly / MechanismProgressOnly / MechanismNeighborsOnly
	// are single-factor ablations of the demand indicator.
	MechanismDeadlineOnly
	MechanismProgressOnly
	MechanismNeighborsOnly
	// MechanismAuction is the budget-limited truthful reverse auction:
	// workers bid travel-derived costs, the cheapest budget-feasible
	// prefix wins, and every task is priced at the uniform critical
	// payment.
	MechanismAuction
	// MechanismIncentMe prices tasks against forecast — not observed —
	// user supply under the configured mobility model and the
	// MobilityUncertainty knob.
	MechanismIncentMe
)

// mechanismKinds, algorithmKinds and mobilityKinds list every valid kind
// of each enumeration in declaration order: Validate accepts exactly
// these, and the Parse functions map their String names back.
var (
	mechanismKinds = []MechanismKind{
		MechanismOnDemand, MechanismFixed, MechanismSteered, MechanismSteeredRaw,
		MechanismEqualWeights, MechanismDeadlineOnly, MechanismProgressOnly,
		MechanismNeighborsOnly, MechanismAuction, MechanismIncentMe,
	}
	algorithmKinds = []AlgorithmKind{
		AlgorithmDP, AlgorithmGreedy, AlgorithmAuto, AlgorithmTwoOpt, AlgorithmBeam,
	}
	mobilityKinds = []MobilityKind{
		MobilityStationary, MobilityRandomWaypoint, MobilityLevyWalk,
	}
)

// ParseMechanism returns the mechanism kind whose String is name.
func ParseMechanism(name string) (MechanismKind, error) {
	return parseKind("mechanism", name, mechanismKinds)
}

// ParseAlgorithm returns the algorithm kind whose String is name.
func ParseAlgorithm(name string) (AlgorithmKind, error) {
	return parseKind("algorithm", name, algorithmKinds)
}

// ParseMobility returns the mobility kind whose String is name.
func ParseMobility(name string) (MobilityKind, error) {
	return parseKind("mobility", name, mobilityKinds)
}

// parseKind returns the entry of kinds whose String is name; an unknown
// name gets an error listing the valid ones.
func parseKind[K fmt.Stringer](what, name string, kinds []K) (K, error) {
	for _, k := range kinds {
		if k.String() == name {
			return k, nil
		}
	}
	var zero K
	return zero, fmt.Errorf("sim: unknown %s %q (valid kinds: %s)", what, name, kindList(kinds))
}

// kindList renders kinds for error messages: "on-demand, fixed, ...".
func kindList[K fmt.Stringer](kinds []K) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

// String implements fmt.Stringer.
func (k MechanismKind) String() string {
	switch k {
	case MechanismOnDemand:
		return "on-demand"
	case MechanismFixed:
		return "fixed"
	case MechanismSteered:
		return "steered"
	case MechanismSteeredRaw:
		return "steered-raw"
	case MechanismEqualWeights:
		return "equal-weights"
	case MechanismDeadlineOnly:
		return "deadline-only"
	case MechanismProgressOnly:
		return "progress-only"
	case MechanismNeighborsOnly:
		return "neighbors-only"
	case MechanismAuction:
		return "auction"
	case MechanismIncentMe:
		return "incentme"
	default:
		return fmt.Sprintf("MechanismKind(%d)", int(k))
	}
}

// AlgorithmKind selects the distributed task selection algorithm.
type AlgorithmKind int

// The selection algorithms of Section V.
const (
	// AlgorithmDP is the optimal dynamic program.
	AlgorithmDP AlgorithmKind = iota + 1
	// AlgorithmGreedy is the O(m^2) heuristic.
	AlgorithmGreedy
	// AlgorithmAuto dispatches per instance: DP on small filtered
	// instances, beam search in the mid band, greedy + 2-opt beyond.
	AlgorithmAuto
	// AlgorithmTwoOpt is greedy followed by 2-opt order improvement.
	AlgorithmTwoOpt
	// AlgorithmBeam is the deterministic beam search with 2-opt / or-opt
	// polish (see selection.Beam).
	AlgorithmBeam
)

// String implements fmt.Stringer.
func (k AlgorithmKind) String() string {
	switch k {
	case AlgorithmDP:
		return "dp"
	case AlgorithmGreedy:
		return "greedy"
	case AlgorithmAuto:
		return "auto"
	case AlgorithmTwoOpt:
		return "greedy+2opt"
	case AlgorithmBeam:
		return "beam"
	default:
		return fmt.Sprintf("AlgorithmKind(%d)", int(k))
	}
}

// Paper defaults for the simulation (Section VI). The user defaults are
// the agent package's.
const (
	DefaultNeighborRadius = 500.0
	DefaultBudget         = 1000.0
	DefaultRewardLambda   = 0.5
	DefaultDemandLevels   = 5
	DefaultUserSpeed      = agent.DefaultSpeed
	DefaultUserTimeBudget = agent.DefaultTimeBudget
	DefaultCostPerMeter   = agent.DefaultCostPerMeter
)

// Config parameterizes one simulation. Zero values mean the paper's
// defaults throughout.
type Config struct {
	// Workload configures scenario generation (area, populations,
	// deadlines, placements).
	Workload workload.Config `json:"workload"`
	// Mechanism picks the incentive mechanism; zero means on-demand.
	Mechanism MechanismKind `json:"mechanism"`
	// Algorithm picks the selection algorithm; zero means auto.
	Algorithm AlgorithmKind `json:"algorithm"`
	// Rounds bounds the simulation length; zero means the largest task
	// deadline (every task is settled by then).
	Rounds int `json:"rounds"`
	// NeighborRadius is the radius R defining neighboring users of a task.
	NeighborRadius float64 `json:"neighbor_radius"`
	// UserSpeed is the walking speed in m/s.
	UserSpeed float64 `json:"user_speed"`
	// UserTimeBudget is the per-round time budget in seconds.
	UserTimeBudget float64 `json:"user_time_budget"`
	// CostPerMeter is the movement cost in $/m.
	CostPerMeter float64 `json:"cost_per_meter"`
	// Budget is the platform's total reward budget B.
	Budget float64 `json:"budget"`
	// RewardLambda is the per-level reward increment lambda of Eq. 7.
	RewardLambda float64 `json:"reward_lambda"`
	// DemandLevels is the number of demand levels N (Table III).
	DemandLevels int `json:"demand_levels"`
	// ResetLocations redraws every user's location each round (population
	// churn) instead of persisting end-of-round positions.
	ResetLocations bool `json:"reset_locations"`
	// DPMaxTasks caps the exact solver's instance size (see selection.DP);
	// zero means selection.DefaultDPMaxTasks. Values above
	// selection.DPHardMaxTasks are rejected: the DP table would overflow
	// its index arithmetic (and any realistic memory) before reaching them.
	DPMaxTasks int `json:"dp_max_tasks"`
	// BeamWidth is the beam search width (states kept per depth) for the
	// beam solver and Auto's beam band; zero means
	// selection.DefaultBeamWidth. Negative values are rejected loudly —
	// a width of zero states would silently solve nothing.
	BeamWidth int `json:"beam_width"`
	// BeamImprove is the number of 2-opt / or-opt polish rounds the beam
	// runs on its best route; zero means selection.DefaultBeamImprove.
	// Negative values are rejected loudly.
	BeamImprove int `json:"beam_improve"`
	// SensingTime is the seconds one measurement takes on site. The paper
	// assumes it negligible (its default, 0); a positive value consumes
	// user time budget per selected task.
	SensingTime float64 `json:"sensing_time"`
	// TimeBudgetJitter spreads per-user time budgets: each user draws its
	// budget uniformly from [B(1-j), B(1+j)]. Zero (the paper's implied
	// setting) gives every user the same budget. Must be in [0, 1].
	TimeBudgetJitter float64 `json:"time_budget_jitter"`
	// ChurnRate is the per-round probability that a user leaves and is
	// replaced by a fresh user at a random location (with no contribution
	// history). Zero (the paper's setting) keeps the population fixed.
	ChurnRate float64 `json:"churn_rate"`
	// Mobility moves users between rounds with the time they did not
	// spend on tasks; zero means stationary (the paper's implicit model).
	Mobility MobilityKind `json:"mobility"`
	// MobilityUncertainty is the extra per-round neighborhood mixing the
	// mobility forecast assumes on top of the model's own diffusion, in
	// [0, 1]: 0 trusts the model, 1 collapses the forecast to the uniform
	// equilibrium after one round. Consumed by forecast-driven mechanisms
	// (MechanismIncentMe); ignored otherwise.
	MobilityUncertainty float64 `json:"mobility_uncertainty,omitempty"`
	// RoundParallelism is kept only so configs that name it fail loudly:
	// the parallel round engine was removed, and Validate rejects any
	// value other than 0 or 1 (both meant the sequential loop, now the
	// only one).
	RoundParallelism int `json:"round_parallelism,omitempty"`
	// Shards is kept only so configs that name it fail loudly: the
	// geo-sharded engine was removed (EXPERIMENTS.md, "Shard-scaling
	// grid"), and Validate rejects any non-zero value rather than silently
	// running the single engine.
	Shards int `json:"shards,omitempty"`
}

// MobilityKind selects the between-round user movement model.
type MobilityKind int

// The mobility models.
const (
	// MobilityStationary keeps users where they ended the round.
	MobilityStationary MobilityKind = iota + 1
	// MobilityRandomWaypoint walks each user toward uniform waypoints.
	MobilityRandomWaypoint
	// MobilityLevyWalk uses heavy-tailed flight lengths.
	MobilityLevyWalk
)

// String implements fmt.Stringer.
func (k MobilityKind) String() string {
	switch k {
	case MobilityStationary:
		return "stationary"
	case MobilityRandomWaypoint:
		return "random-waypoint"
	case MobilityLevyWalk:
		return "levy-walk"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Mechanism == 0 {
		c.Mechanism = MechanismOnDemand
	}
	if c.Algorithm == 0 {
		c.Algorithm = AlgorithmAuto
	}
	if c.NeighborRadius == 0 {
		c.NeighborRadius = DefaultNeighborRadius
	}
	if c.UserSpeed == 0 {
		c.UserSpeed = DefaultUserSpeed
	}
	if c.UserTimeBudget == 0 {
		c.UserTimeBudget = DefaultUserTimeBudget
	}
	if c.CostPerMeter == 0 {
		c.CostPerMeter = DefaultCostPerMeter
	}
	if c.Budget == 0 {
		c.Budget = DefaultBudget
	}
	if c.RewardLambda == 0 {
		c.RewardLambda = DefaultRewardLambda
	}
	if c.DemandLevels == 0 {
		c.DemandLevels = DefaultDemandLevels
	}
	if c.BeamWidth == 0 {
		c.BeamWidth = selection.DefaultBeamWidth
	}
	if c.BeamImprove == 0 {
		c.BeamImprove = selection.DefaultBeamImprove
	}
	if c.Mobility == 0 {
		c.Mobility = MobilityStationary
	}
	return c
}

// Validate checks the defaulted configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Rounds < 0 {
		return fmt.Errorf("sim: rounds %d, want >= 0", c.Rounds)
	}
	// The range checks below are written so that NaN fails them; the
	// IsInf checks reject the "Inf" a flag parser accepts.
	if !(c.NeighborRadius > 0) || math.IsInf(c.NeighborRadius, 1) {
		return fmt.Errorf("sim: neighbor radius %v, want finite > 0", c.NeighborRadius)
	}
	if !(c.UserSpeed > 0) || !(c.UserTimeBudget >= 0) || !(c.CostPerMeter >= 0) ||
		math.IsInf(c.UserSpeed, 1) || math.IsInf(c.UserTimeBudget, 1) || math.IsInf(c.CostPerMeter, 1) {
		return fmt.Errorf("sim: bad user parameters (speed %v, budget %v, cost %v)",
			c.UserSpeed, c.UserTimeBudget, c.CostPerMeter)
	}
	if !(c.Budget > 0) || !(c.RewardLambda >= 0) || math.IsInf(c.Budget, 1) || math.IsInf(c.RewardLambda, 1) ||
		c.DemandLevels < 1 {
		return fmt.Errorf("sim: bad reward parameters (budget %v, lambda %v, levels %d)",
			c.Budget, c.RewardLambda, c.DemandLevels)
	}
	if c.DPMaxTasks > selection.DPHardMaxTasks {
		return fmt.Errorf("sim: dp max tasks %d exceeds solver hard cap %d",
			c.DPMaxTasks, selection.DPHardMaxTasks)
	}
	// Zero means default (filled above); what reaches this check is a
	// configured negative, which would otherwise be carried into the
	// solver as a beam that keeps no states (or a polish loop with a
	// negative trip count) and silently return empty plans.
	if c.BeamWidth <= 0 {
		return fmt.Errorf("sim: beam width %d, want > 0 (0 = default %d)",
			c.BeamWidth, selection.DefaultBeamWidth)
	}
	if c.BeamImprove < 0 {
		return fmt.Errorf("sim: beam improve rounds %d, want >= 0 (0 = default %d)",
			c.BeamImprove, selection.DefaultBeamImprove)
	}
	if !(c.SensingTime >= 0) || math.IsInf(c.SensingTime, 1) {
		return fmt.Errorf("sim: sensing time %v, want finite >= 0", c.SensingTime)
	}
	if !(c.TimeBudgetJitter >= 0 && c.TimeBudgetJitter <= 1) {
		return fmt.Errorf("sim: time budget jitter %v, want in [0, 1]", c.TimeBudgetJitter)
	}
	// Each finite knob can still overflow in the products the solver
	// reads: a user's travel budget is speed × its jittered time budget
	// (at most the time budget × (1 + jitter), and the products are
	// monotone under rounding), and its per-task overhead is speed ×
	// sensing time. An infinite budget makes every subset feasible; an
	// infinite overhead makes every travel value Inf − Inf = NaN.
	if maxTime := c.UserTimeBudget * (1 + c.TimeBudgetJitter); math.IsInf(maxTime, 1) || math.IsInf(c.UserSpeed*maxTime, 1) {
		return fmt.Errorf("sim: speed %v times time budget %v (jitter %v) overflows",
			c.UserSpeed, c.UserTimeBudget, c.TimeBudgetJitter)
	}
	if math.IsInf(c.UserSpeed*c.SensingTime, 1) {
		return fmt.Errorf("sim: speed %v times sensing time %v overflows", c.UserSpeed, c.SensingTime)
	}
	if !(c.ChurnRate >= 0 && c.ChurnRate < 1) {
		return fmt.Errorf("sim: churn rate %v, want in [0, 1)", c.ChurnRate)
	}
	if c.RoundParallelism != 0 && c.RoundParallelism != 1 {
		return fmt.Errorf("sim: round parallelism %d: round parallelism was removed (rounds are sequential); omit it or set it to 0 or 1", c.RoundParallelism)
	}
	if c.Shards != 0 {
		return fmt.Errorf("sim: shards %d: the geo-sharded engine was removed; omit shards or set it to 0", c.Shards)
	}
	if !slices.Contains(mobilityKinds, c.Mobility) {
		return fmt.Errorf("sim: unknown mobility %v (valid kinds: %s)", c.Mobility, kindList(mobilityKinds))
	}
	if !(c.MobilityUncertainty >= 0 && c.MobilityUncertainty <= 1) {
		return fmt.Errorf("sim: mobility uncertainty %v, want in [0, 1]", c.MobilityUncertainty)
	}
	if !slices.Contains(mechanismKinds, c.Mechanism) {
		return fmt.Errorf("sim: unknown mechanism %v (valid kinds: %s)", c.Mechanism, kindList(mechanismKinds))
	}
	if !slices.Contains(algorithmKinds, c.Algorithm) {
		return fmt.Errorf("sim: unknown algorithm %v (valid kinds: %s)", c.Algorithm, kindList(algorithmKinds))
	}
	// Cross-check the inputs the mechanism uses against the knobs that
	// supply them, so an unsatisfiable configuration fails here with
	// a mechanism-specific message instead of surfacing mid-construction.
	switch c.Mechanism {
	case MechanismAuction:
		// Budget > 0 and CostPerMeter >= 0 are enforced above; bids
		// additionally need a strictly positive travel cost, or every
		// worker would bid zero and the auction degenerates.
		if c.CostPerMeter <= 0 {
			return fmt.Errorf("sim: mechanism %v requires worker bids, so cost per meter must be > 0 (got %v)",
				c.Mechanism, c.CostPerMeter)
		}
	case MechanismIncentMe:
		// The forecast needs a mobility model; every MobilityKind accepted
		// above supplies one, and MobilityUncertainty was range-checked —
		// nothing further to verify.
	}
	return nil
}

// buildMobility constructs the configured mobility model over the area.
func (c Config) buildMobility(area geo.Rect) (mobility.Model, error) {
	switch c.Mobility {
	case MobilityStationary:
		return mobility.Stationary{}, nil
	case MobilityRandomWaypoint:
		return mobility.NewRandomWaypoint(area)
	case MobilityLevyWalk:
		return mobility.NewLevyWalk(area)
	default:
		return nil, fmt.Errorf("sim: unknown mobility %v", c.Mobility)
	}
}

// buildMechanism constructs the configured incentive mechanism over the
// reward scheme its budget, λ and level count derive (Eq. 9).
// totalRequired is the campaign's total measurement requirement.
func (c Config) buildMechanism(totalRequired int) (incentive.Mechanism, error) {
	levels := demand.LevelMapper{N: c.DemandLevels}
	scheme, err := incentive.SchemeFromBudget(c.Budget, totalRequired, c.RewardLambda, levels)
	if err != nil {
		return nil, err
	}
	return NewMechanism(c.Mechanism, scheme)
}

// NewMechanism builds the incentive mechanism of the given kind over a
// reward scheme. Per-round inputs — the fixed mechanism's RNG, the
// auction's budget and bid cost, the forecast — are not baked in here:
// they reach the mechanism each round through the engine's RoundInput.
func NewMechanism(kind MechanismKind, scheme incentive.RewardScheme) (incentive.Mechanism, error) {
	switch kind {
	case MechanismOnDemand:
		return incentive.NewPaperOnDemand(scheme)
	case MechanismFixed:
		return incentive.NewFixed(scheme)
	case MechanismSteered:
		return incentive.NewBudgetScaledSteered(scheme.MaxReward())
	case MechanismSteeredRaw:
		return incentive.NewSteered(), nil
	case MechanismEqualWeights:
		return incentive.NewEqualWeightsOnDemand(scheme)
	case MechanismDeadlineOnly:
		return incentive.NewSingleFactorOnDemand(incentive.FactorDeadline, scheme)
	case MechanismProgressOnly:
		return incentive.NewSingleFactorOnDemand(incentive.FactorProgress, scheme)
	case MechanismNeighborsOnly:
		return incentive.NewSingleFactorOnDemand(incentive.FactorNeighbors, scheme)
	case MechanismAuction:
		return incentive.NewAuction(), nil
	case MechanismIncentMe:
		return incentive.NewIncentMe(scheme)
	default:
		return nil, fmt.Errorf("sim: unknown mechanism %v (valid kinds: %s)", kind, kindList(mechanismKinds))
	}
}

// NewAlgorithm builds the configured selection algorithm; zero fields
// mean the defaults, as everywhere in Config.
func (c Config) NewAlgorithm() (selection.Algorithm, error) {
	return c.algorithm(nil)
}

// algorithm is NewAlgorithm reusing prev, a solver an earlier trial left
// behind, when it is of the configured kind: every exported field is set
// as NewAlgorithm sets it, and the solvers' unexported scratch carries
// nothing from one Select to the next, so only its grown capacity
// survives.
func (c Config) algorithm(prev selection.Algorithm) (selection.Algorithm, error) {
	c = c.withDefaults()
	switch c.Algorithm {
	case AlgorithmDP:
		d := reuse[selection.DP](prev)
		d.MaxTasks = c.DPMaxTasks
		return d, nil
	case AlgorithmGreedy:
		return reuse[selection.Greedy](prev), nil
	case AlgorithmAuto:
		a := reuse[selection.Auto](prev)
		a.Threshold = c.DPMaxTasks
		a.BeamWidth, a.BeamImprove = c.BeamWidth, c.BeamImprove
		return a, nil
	case AlgorithmTwoOpt:
		return reuse[selection.TwoOptGreedy](prev), nil
	case AlgorithmBeam:
		b := reuse[selection.Beam](prev)
		b.Width, b.Improve = c.BeamWidth, c.BeamImprove
		return b, nil
	default:
		return nil, fmt.Errorf("sim: unknown algorithm %v (valid kinds: %s)", c.Algorithm, kindList(algorithmKinds))
	}
}

// reuse returns prev as a *T when it is one, and a new T otherwise.
func reuse[T any](prev selection.Algorithm) *T {
	if t, ok := any(prev).(*T); ok {
		return t
	}
	return new(T)
}
