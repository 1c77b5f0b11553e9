// Package paydemand is the public API of the Pay On-Demand library, a full
// implementation of "Pay On-demand: Dynamic Incentive and Task Selection
// for Location-dependent Mobile Crowdsensing Systems" (Wang et al.,
// ICDCS 2018).
//
// The library provides:
//
//   - the demand-based dynamic incentive mechanism (demand indicator,
//     AHP-derived criteria weights, demand levels, budget-constrained
//     reward schemes) plus the fixed and steered baselines;
//   - the distributed task selection solvers (optimal bitmask DP, greedy,
//     2-opt, and a size-adaptive auto solver);
//   - a deterministic round-based simulator of the full platform/user
//     loop, with workload generation and the paper's evaluation metrics;
//   - an experiment harness regenerating every figure in the paper;
//   - an HTTP platform server and worker client for running the WST
//     protocol over a real network.
//
// Quick start:
//
//	res, err := paydemand.Run(paydemand.Config{}, 1)   // paper defaults
//	fmt.Println(res.Coverage, res.OverallCompleteness)
//
// The type surface is organized as aliases of the implementation packages
// so that the whole library is usable from this single import.
package paydemand

import (
	"io"

	"paydemand/internal/metrics"
	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

// Config configures a simulation; the zero value reproduces the paper's
// evaluation defaults (3000 m square, 20 tasks x 20 measurements,
// deadlines U{5..15}, budget $1000, 5 demand levels, lambda $0.5).
type Config = sim.Config

// WorkloadConfig configures scenario generation.
type WorkloadConfig = workload.Config

// Scenario is a generated workload instance.
type Scenario = workload.Scenario

// MechanismKind selects the incentive mechanism under test.
type MechanismKind = sim.MechanismKind

// The incentive mechanisms.
const (
	MechanismOnDemand      = sim.MechanismOnDemand
	MechanismFixed         = sim.MechanismFixed
	MechanismSteered       = sim.MechanismSteered
	MechanismSteeredRaw    = sim.MechanismSteeredRaw
	MechanismEqualWeights  = sim.MechanismEqualWeights
	MechanismDeadlineOnly  = sim.MechanismDeadlineOnly
	MechanismProgressOnly  = sim.MechanismProgressOnly
	MechanismNeighborsOnly = sim.MechanismNeighborsOnly
	MechanismAuction       = sim.MechanismAuction
	MechanismIncentMe      = sim.MechanismIncentMe
)

// AlgorithmKind selects the distributed task selection algorithm.
type AlgorithmKind = sim.AlgorithmKind

// The task selection algorithms.
const (
	AlgorithmDP     = sim.AlgorithmDP
	AlgorithmGreedy = sim.AlgorithmGreedy
	AlgorithmAuto   = sim.AlgorithmAuto
	AlgorithmTwoOpt = sim.AlgorithmTwoOpt
	AlgorithmBeam   = sim.AlgorithmBeam
)

// MobilityKind selects the between-round user movement model.
type MobilityKind = sim.MobilityKind

// The mobility models.
const (
	MobilityStationary     = sim.MobilityStationary
	MobilityRandomWaypoint = sim.MobilityRandomWaypoint
	MobilityLevyWalk       = sim.MobilityLevyWalk
)

// Simulation is one configured run over one scenario.
type Simulation = sim.Simulation

// Observer receives per-round simulation events.
type Observer = sim.Observer

// BaseObserver is a no-op Observer for embedding.
type BaseObserver = sim.BaseObserver

// TraceObserver streams simulation events as JSONL for offline analysis.
type TraceObserver = sim.TraceObserver

// NewTraceObserver returns an Observer that writes JSONL trace events to w.
func NewTraceObserver(w io.Writer) *TraceObserver {
	return sim.NewTraceObserver(w)
}

// TrialResult is the outcome of one simulation run.
type TrialResult = metrics.TrialResult

// RoundStats is the platform's view of one sensing round.
type RoundStats = metrics.RoundStats

// Aggregator averages TrialResults over repeated trials.
type Aggregator = metrics.Aggregator

// Summary is the across-trial mean of every final metric.
type Summary = metrics.Summary

// NewSimulation generates a scenario from cfg.Workload with the given seed
// and prepares a simulation. The same (cfg, seed) pair always produces the
// same result.
func NewSimulation(cfg Config, seed int64) (*Simulation, error) {
	return sim.New(cfg, seed)
}

// NewSimulationFromScenario prepares a simulation over a caller-supplied
// scenario.
func NewSimulationFromScenario(cfg Config, sc Scenario, seed int64) (*Simulation, error) {
	return sim.NewFromScenario(cfg, sc, seed)
}

// Run builds and runs a simulation in one call.
func Run(cfg Config, seed int64) (TrialResult, error) {
	return sim.Run(cfg, seed)
}

// GenerateScenario draws a workload scenario from the configuration.
func GenerateScenario(seed int64, cfg WorkloadConfig) (Scenario, error) {
	return workload.Generate(newRNG(seed), cfg)
}
