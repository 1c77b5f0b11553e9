// Command paylint runs the repo's static-analysis suite: the custom
// analyzers that enforce the determinism, aliasing and lock-release
// invariants every performance PR rests on (byte-identical simulation
// output for a given seed at any worker count; every lock released by
// the shape of the code).
//
// Usage:
//
//	go run ./cmd/paylint ./...
//	go run ./cmd/paylint -list
//	go run ./cmd/paylint -only mapiter,detrand ./internal/sim/
//	go run ./cmd/paylint -json ./...
//
// Findings are printed one per line as path:line:col: message (analyzer)
// and the exit status is 1 when any finding is reported, so the command
// gates CI directly. With -json, findings are emitted instead as a JSON
// array of {file, line, col, analyzer, message} objects in the same
// deterministic order (an empty array when the tree is clean), which CI
// uploads as an artifact. See DESIGN.md sections 11 and 15 for the
// invariants and the //paylint: suppression syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"paydemand/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one finding. The field order
// and names are part of the CI artifact contract.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is main with its streams and exit status made testable:
// 0 clean, 1 findings, 2 usage or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	onlyFlag := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paylint [-list] [-only names] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*onlyFlag)
	if err != nil {
		fmt.Fprintln(stderr, "paylint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "paylint:", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "paylint:", err)
		return 2
	}

	if *jsonFlag {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "paylint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "paylint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// writeJSON renders findings as an indented JSON array, [] when clean.
// Run already sorted them by file, line, column, and analyzer, so the
// artifact is byte-stable across runs.
func writeJSON(w io.Writer, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Position.Filename,
			Line:     f.Position.Line,
			Col:      f.Position.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -only flag against the full suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
