package analysis

// DeterministicPackages are the packages whose output feeds the
// byte-identity guarantee: given a seed, a simulation (and the round
// engine, experiment harness and HTTP platform built on it) must produce
// identical bytes at any worker count. This is paylint's only scope
// list: mapiter, detrand, and scratchalias apply only here; lockorder
// checks every package. Grow the list when a new package joins the
// deterministic core; the three scoped analyzers pick the addition up at
// once.
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
