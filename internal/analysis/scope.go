package analysis

// DeterministicPackages are the packages whose output feeds the
// byte-identity guarantee: given a seed, a simulation (and the round
// engine, experiment harness and HTTP platform built on it) must produce
// identical bytes at any worker count. This is the single scope list all
// determinism analyzers consume — mapiter, detrand, and scratchalias
// apply only here, and wirejson treats these packages as its non-strict
// tier. Grow the list when a new package joins the deterministic core;
// every analyzer picks the addition up at once.
var DeterministicPackages = []string{
	"paydemand/internal/sim",
	"paydemand/internal/selection",
	"paydemand/internal/engine",
	"paydemand/internal/shard",
	"paydemand/internal/experiments",
	"paydemand/internal/metrics",
	"paydemand/internal/server",
	"paydemand/internal/incentive",
	"paydemand/internal/mobility",
}

// isDeterministicPackage reports whether the pass's package is subject to
// the determinism analyzers.
func isDeterministicPackage(path string) bool {
	for _, p := range DeterministicPackages {
		if path == p {
			return true
		}
	}
	return false
}

// ConcurrencyPackages are the packages the flow-sensitive v2 analyzers
// (poolpair, lockorder, atomicfield) apply to: the
// deterministic core plus the two packages that recycle pooled buffers
// without feeding the byte-identity guarantee directly. Grow the list
// when a new package takes up sync.Pool buffers or the ranked mutexes;
// all three analyzers pick the addition up at once.
var ConcurrencyPackages = append(append([]string{},
	DeterministicPackages...),
	"paydemand/internal/client",
	"paydemand/internal/wire/binary",
)

// isConcurrencyPackage reports whether the pass's package is subject to
// the flow-sensitive concurrency analyzers.
func isConcurrencyPackage(path string) bool {
	for _, p := range ConcurrencyPackages {
		if path == p {
			return true
		}
	}
	return false
}

// LockRanks is the declared lock hierarchy, keyed by lock class — the
// owning named type's package path, type name, and mutex field name.
// A goroutine may only acquire a lock of rank r while every ranked lock
// it already holds has rank strictly less than r; lockorder enforces
// this at every Lock site it can see intra-procedurally.
//
// The ranks encode the acquisition order the system actually uses,
// outermost first:
//
//   - server.Platform.mu is the outermost lock: HTTP handlers take it
//     before driving the engine, which commits into shard regions.
//   - shard.region.mu comes next; the two-phase cross-shard commit
//     acquires region locks in ascending region-ID order (a total order
//     within the class, below the granularity this table sees — the
//     symmetric lock/unlock loop check in lockorder covers it).
//   - shard.Engine.closedMu nests inside region locks: CommitPlan
//     appends to the closed list while still holding the plan's regions.
//   - selection.SolverPool.mu is a leaf lock guarding a free list;
//     nothing may be acquired under it, which its maximal rank
//     expresses.
//
// Unranked mutexes (locals, test scaffolding) are exempt from ordering
// but still subject to the missing-Unlock-on-path check.
var LockRanks = map[string]int{
	"paydemand/internal/server.Platform.mu":      10,
	"paydemand/internal/shard.region.mu":         20,
	"paydemand/internal/shard.Engine.closedMu":   30,
	"paydemand/internal/selection.SolverPool.mu": 40,
}
