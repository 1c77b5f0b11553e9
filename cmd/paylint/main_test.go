package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"paydemand/internal/analysis"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(analysis.All()) {
		t.Fatalf("empty -only selected %d analyzers, want all %d", len(all), len(analysis.All()))
	}

	got, err := selectAnalyzers("mapiter, detrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "mapiter" || got[1].Name != "detrand" {
		t.Fatalf("selectAnalyzers(\"mapiter, detrand\") = %v", names(got))
	}

	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("selectAnalyzers(\"nosuch\") did not fail")
	}
}

// TestRunList checks -list: every analyzer name appears, no packages
// are loaded, and the exit status is 0.
func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output is missing analyzer %s", a.Name)
		}
	}
}

// TestRunBadInput checks the usage-error exit status for unknown flags
// and unknown analyzer names.
func TestRunBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(-nosuchflag) = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(-only nosuch) = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want an unknown-analyzer error", stderr.String())
	}
}

// TestRunJSONClean runs one clean out-of-scope package through -json and
// expects the empty-array form of the artifact.
func TestRunJSONClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping package loading in -short mode")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-json", "-only", "detrand,lockorder", "../../internal/geo"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}

// TestWriteJSON checks the artifact shape on synthetic findings: field
// names, order preservation, and round-trip values.
func TestWriteJSON(t *testing.T) {
	findings := []analysis.Finding{
		{Analyzer: "lockorder", Position: token.Position{Filename: "a.go", Line: 3, Column: 2}, Message: "m1"},
		{Analyzer: "lockorder", Position: token.Position{Filename: "b.go", Line: 9, Column: 1}, Message: "m2"},
	}
	var buf strings.Builder
	if err := writeJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d findings, want 2", len(got))
	}
	if got[0]["file"] != "a.go" || got[0]["analyzer"] != "lockorder" || got[0]["line"] != float64(3) {
		t.Errorf("first finding = %v", got[0])
	}
	if got[1]["message"] != "m2" || got[1]["col"] != float64(1) {
		t.Errorf("second finding = %v", got[1])
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// TestRepoRunsClean is the lint gate as a test: the full suite must
// produce zero findings on the repository itself. CI also runs
// `go run ./cmd/paylint ./...` directly, but keeping the assertion in
// `go test ./...` means a finding cannot hide behind a forgotten CI
// step.
func TestRepoRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo analysis in -short mode")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole repo", len(pkgs))
	}
	findings, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
