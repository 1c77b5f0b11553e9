// Package analysis is paylint's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API built
// on the standard library's go/ast, go/token and go/types packages.
//
// Why not x/tools itself? The repo builds with a bare standard library
// (go.mod declares no requirements), and the paylint suite is
// load-bearing CI infrastructure — it must compile in offline,
// vendor-free environments. The subset implemented here (Analyzer, Pass,
// Diagnostic, a package loader, and an analysistest-style fixture runner)
// is shaped exactly like the upstream API, so the analyzers can be ported
// to a go/analysis multichecker by swapping imports if the dependency
// ever becomes available.
//
// The suite enforces the determinism and aliasing invariants that every
// performance PR in this repo rests on: simulation output must be
// byte-identical for a given seed at any worker count. The analyzers are:
//
//   - mapiter: no unsorted map iteration in the deterministic packages
//     (map order is Go's canonical nondeterminism source).
//   - detrand: no math/rand, time.Now, or ad-hoc random sources in the
//     deterministic packages; all randomness flows through stats.RNG.
//   - scratchalias: exported functions must not leak a receiver's
//     reusable scratch buffer unless their name says so (…Into) or a
//     //paylint:aliases directive documents the contract.
//   - lockorder: every Lock is released by the shape of the code,
//     directly followed by a defer of its unlock or unlocked later in
//     its block by straight-line code, and no function body locks a
//     receiver it still holds.
//   - directive: every //paylint: suppression directive is well-formed,
//     attached to a node it can actually suppress, and still suppressing
//     something (stale directives are findings too). It runs last so it
//     can see which directives the other analyzers consulted.
//
// The shapes of the wire messages and of the JSON the programs write are
// pinned by tests, not analyzers: internal/wire/binary's
// TestJSONFieldParity and the byte goldens (DESIGN.md §14).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph help text: the invariant the analyzer
	// guards and how to suppress a finding.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the parsed and type-checked syntax of
// a single package, and accepts its diagnostics. It mirrors
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver sets it.
	Report func(Diagnostic)

	// directives is the lazily built per-pass directive index.
	directives *directiveIndex

	// usage is the per-package directive-usage record, shared by every
	// analyzer the driver runs on the package so the directive analyzer
	// (always last) can report suppressions that suppressed nothing.
	usage *directiveUsage
}

// directiveUsage records, for one package, which directives suppressed a
// finding and which analyzers ran — the evidence the stale-directive
// check needs. A directive is only stale if its owning analyzer actually
// ran in this batch and still consulted it for nothing.
type directiveUsage struct {
	used map[token.Pos]bool
	ran  map[string]bool
}

func newDirectiveUsage() *directiveUsage {
	return &directiveUsage{used: map[token.Pos]bool{}, ran: map[string]bool{}}
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a positioned diagnostic with its analyzer name, as
// collected by Run.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// String formats the finding the way go vet does:
// path/file.go:line:col: message (analyzer).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Position.Filename,
		f.Position.Line, f.Position.Column, f.Message, f.Analyzer)
}

// Run applies every analyzer to every package and returns the findings
// sorted by file, line, column, and analyzer name, so output is stable
// for CI diffing.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	// The directive analyzer consumes the usage record the other
	// analyzers produce (stale-suppression detection), so it always runs
	// last on each package, whatever order the caller selected.
	ordered := make([]*Analyzer, 0, len(analyzers))
	var last []*Analyzer
	for _, a := range analyzers {
		if a.Name == Directive.Name {
			last = append(last, a)
			continue
		}
		ordered = append(ordered, a)
	}
	ordered = append(ordered, last...)

	var out []Finding
	for _, pkg := range pkgs {
		usage := newDirectiveUsage()
		for _, a := range ordered {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				usage:     usage,
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			usage.ran[a.Name] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// All returns the full paylint suite in the order it is run. The
// directive analyzer is last: it audits the suppression directives the
// preceding analyzers consulted.
func All() []*Analyzer {
	return []*Analyzer{Mapiter, Detrand, ScratchAlias, LockOrder, Directive}
}
