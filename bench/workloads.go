package main

import (
	"fmt"
	"time"

	"paydemand/internal/client"
	"paydemand/internal/selection"
	"paydemand/internal/sim"
	"paydemand/internal/workload"
)

// benchWorkload is one named set of inputs and the code that measures it.
type benchWorkload struct {
	name string
	size string
	// measure runs untraced for d and reports the end-to-end metrics;
	// golden, when non-nil, holds the trial digests the run must
	// reproduce.
	measure func(seed int64, d time.Duration, golden []string) *result
	// traced runs for d with spans around every layer call and reports
	// the per-layer metrics and the span log.
	traced func(seed int64, d time.Duration) (*result, []span)
}

// paperSim is the paper's Section VI scenario: 100 users, 20 tasks,
// phi = 20, the on-demand mechanism, Auto selection, stationary users.
// Every field the simulator would default is spelled out, because the
// traced mirror reads them directly.
func paperSim() sim.Config {
	return sim.Config{
		Workload:       workload.Config{NumTasks: 20, NumUsers: 100, Required: 20},
		Mechanism:      sim.MechanismOnDemand,
		Algorithm:      sim.AlgorithmAuto,
		NeighborRadius: sim.DefaultNeighborRadius,
		UserSpeed:      sim.DefaultUserSpeed,
		UserTimeBudget: sim.DefaultUserTimeBudget,
		CostPerMeter:   sim.DefaultCostPerMeter,
		Budget:         sim.DefaultBudget,
		RewardLambda:   sim.DefaultRewardLambda,
		DemandLevels:   sim.DefaultDemandLevels,
		BeamWidth:      selection.DefaultBeamWidth,
		BeamImprove:    selection.DefaultBeamImprove,
		Mobility:       sim.MobilityStationary,
	}
}

// citySim is opportunistic city-scale sensing: 2000 users, 1000 tasks,
// phi = 10, the paper's 2.5 $ per required measurement as budget, and a
// 25 s time budget (50 m of walking), so every user scans every open task
// but can reach about one.
func citySim() sim.Config {
	c := paperSim()
	c.Workload = workload.Config{NumTasks: 1000, NumUsers: 2000, Required: 10}
	c.Budget = 25000
	c.UserTimeBudget = 25
	return c
}

// serveTLV is the served fleet: 100 tasks, phi = 20, 200 workers with the
// paper's user parameters, driven over loopback HTTP by two goroutines.
func serveTLV() serveConfig {
	return serveConfig{
		workload:   workload.Config{NumTasks: 100, NumUsers: 200, Required: 20},
		codec:      client.CodecTLV,
		goroutines: 2,
	}
}

func serveJSON() serveConfig {
	c := serveTLV()
	c.codec = client.CodecJSON
	return c
}

func simWorkload(name string, cfg sim.Config) benchWorkload {
	return benchWorkload{
		name: name,
		size: fmt.Sprintf("users=%d,tasks=%d,phi=%d,budget=%g,time_budget_s=%g",
			cfg.Workload.NumUsers, cfg.Workload.NumTasks, cfg.Workload.Required, cfg.Budget, cfg.UserTimeBudget),
		measure: func(seed int64, d time.Duration, golden []string) *result {
			return runSim(cfg, seed, d, golden)
		},
		traced: func(seed int64, d time.Duration) (*result, []span) {
			return traceSim(cfg, seed, d)
		},
	}
}

func serveWorkload(name string, cfg serveConfig) benchWorkload {
	codec := "json"
	if cfg.codec == client.CodecTLV {
		codec = "tlv"
	}
	return benchWorkload{
		name: name,
		size: fmt.Sprintf("workers=%d,tasks=%d,phi=%d,codec=%s,goroutines=%d,conns=%d",
			cfg.workload.NumUsers, cfg.workload.NumTasks, cfg.workload.Required, codec, cfg.goroutines, cfg.goroutines),
		measure: func(seed int64, d time.Duration, _ []string) *result {
			return runServe(cfg, seed, d)
		},
		traced: func(seed int64, d time.Duration) (*result, []span) {
			return traceServe(cfg, seed, d)
		},
	}
}

func workloads() []benchWorkload {
	return []benchWorkload{
		simWorkload("paper-sim", paperSim()),
		simWorkload("city-sim", citySim()),
		serveWorkload("serve-tlv", serveTLV()),
		serveWorkload("serve-json", serveJSON()),
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}
