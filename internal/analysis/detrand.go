package analysis

import (
	"go/ast"
)

// Detrand bans the wall clock and ad-hoc randomness in the deterministic
// packages. Simulation output must be a pure function of the seed, down
// to a draw-sequence contract (stats.RNG.PermInto reproduces rand.Perm's
// exact draws): one stray
// time.Now() or math/rand call in a hot path silently breaks
// reproducibility in a way no fixed-seed test can reliably catch.
//
// Flagged in deterministic packages:
//   - importing math/rand or math/rand/v2 at all — every top-level
//     function (rand.Intn, rand.Float64, ...) draws from the global
//     source, rand.New/rand.NewSource invite time-seeded construction,
//     and the sanctioned wrapper stats.RNG already exposes the needed
//     draw helpers with a single-seed contract;
//   - calling time.Now (including time.Now().UnixNano() seeding).
//
// There is no suppression directive: randomness in these packages must
// flow through stats.RNG, full stop. Code that genuinely needs the wall
// clock (logging, HTTP timeouts) belongs outside the deterministic core,
// or takes the time as an argument.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "ban math/rand and time.Now in the deterministic packages; " +
		"all randomness flows through stats.RNG",
	Run: runDetrand,
}

func runDetrand(pass *Pass) error {
	if !isDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch importPath(imp) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: "+
					"draw randomness through stats.RNG so results are a pure function of the seed",
					importPath(imp), pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if packageOf(pass, sel.X) == "time" && sel.Sel.Name == "Now" {
				pass.Reportf(call.Pos(), "time.Now in deterministic package %s: "+
					"output must be a pure function of the seed; take the time as an argument instead",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// importPath returns the unquoted import path of an import spec.
func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}
