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

// ConcurrencyPackages are the packages the flow-sensitive analyzers
// (poolpair, lockorder) apply to: the deterministic core plus the two
// packages that recycle pooled buffers without feeding the byte-identity
// guarantee directly. Grow the list when a new package takes up pooled
// buffers or mutexes; both analyzers pick the addition up at once.
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
