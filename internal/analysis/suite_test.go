package analysis_test

import (
	"testing"

	"paydemand/internal/analysis"
	"paydemand/internal/analysis/analysistest"
)

// Each analyzer is exercised against a fixture that demonstrates both
// reported violations and accepted counterparts (sorted keys, Into
// naming, directives, explicit tags). The _outofscope fixtures prove the
// deterministic-package scoping by re-checking the same constructs under
// a package path the analyzers do not apply to.

func TestMapiter(t *testing.T) {
	analysistest.Run(t, analysis.Mapiter, "mapiter", "paydemand/internal/sim")
}

func TestMapiterOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.Mapiter, "mapiter_outofscope", "paydemand/internal/geo")
}

// TestMapiterIncentive proves the incentive package joined the
// deterministic scope and pins the auction-specific contract: winner
// selection iterates bids in sorted slice order, never in map order.
func TestMapiterIncentive(t *testing.T) {
	analysistest.Run(t, analysis.Mapiter, "mapiter_incentive", "paydemand/internal/incentive")
}

func TestDetrand(t *testing.T) {
	analysistest.Run(t, analysis.Detrand, "detrand", "paydemand/internal/sim")
}

func TestDetrandOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.Detrand, "detrand_outofscope", "paydemand/internal/geo")
}

func TestScratchAlias(t *testing.T) {
	analysistest.Run(t, analysis.ScratchAlias, "scratchalias", "paydemand/internal/selection")
}

func TestScratchAliasOutOfScope(t *testing.T) {
	analysistest.Run(t, analysis.ScratchAlias, "scratchalias_outofscope", "paydemand/internal/geo")
}

func TestWireJSONStrict(t *testing.T) {
	analysistest.Run(t, analysis.WireJSON, "wirejson", "paydemand/internal/wire")
}

func TestWireJSONOptIn(t *testing.T) {
	analysistest.Run(t, analysis.WireJSON, "wirejson_optin", "paydemand/internal/metrics")
}

func TestWireBin(t *testing.T) {
	analysistest.Run(t, analysis.WireBin, "wirebin", "paydemand/internal/wire/binary")
}

func TestPoolPair(t *testing.T) {
	analysistest.Run(t, analysis.PoolPair, "poolpair", "paydemand/internal/server")
}

// TestLockOrder type-checks the fixture as an in-scope package and ranks
// its two lock classes for the test's duration: region.mu below
// Engine.closedMu, with both above server.Platform.mu and below
// selection.SolverPool.mu, so the fixture exercises ordering between
// ranked classes without the production table carrying test-only entries.
func TestLockOrder(t *testing.T) {
	const pkg = "paydemand/internal/engine"
	ranks := map[string]int{
		pkg + ".region.mu":       20,
		pkg + ".Engine.closedMu": 30,
	}
	for class, rank := range ranks {
		if _, taken := analysis.LockRanks[class]; taken {
			t.Fatalf("fixture lock class %s is already ranked", class)
		}
		analysis.LockRanks[class] = rank
	}
	t.Cleanup(func() {
		for class := range ranks {
			delete(analysis.LockRanks, class)
		}
	})
	analysistest.Run(t, analysis.LockOrder, "lockorder", pkg)
}

// TestFlowOutOfScope proves the ConcurrencyPackages scoping of the
// flow-sensitive analyzers: the same unbalanced constructs under an
// out-of-scope path report nothing.
func TestFlowOutOfScope(t *testing.T) {
	analysistest.RunAnalyzers(t,
		[]*analysis.Analyzer{analysis.PoolPair, analysis.LockOrder},
		"lockorder_outofscope", "paydemand/internal/geo")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, analysis.AtomicField, "atomicfield", "paydemand/internal/metrics")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, analysis.Directive, "directive", "paydemand/internal/selection")
}

// TestDirectiveStale runs a batch — owning analyzers plus the directive
// analyzer — because stale detection consumes the usage the owners
// record: a directive is stale exactly when its owner ran and never
// consulted it.
func TestDirectiveStale(t *testing.T) {
	analysistest.RunAnalyzers(t,
		[]*analysis.Analyzer{analysis.Mapiter, analysis.LockOrder, analysis.Directive},
		"directive_stale", "paydemand/internal/sim")
}

// TestSuiteNames pins the suite composition: CI documentation and the
// -only flag both refer to analyzers by these names.
func TestSuiteNames(t *testing.T) {
	want := []string{"mapiter", "detrand", "scratchalias", "wirejson", "wirebin",
		"poolpair", "lockorder", "atomicfield", "directive"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}
