package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs drives run with small, fast parameters.
func runArgs(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{"-trials", "2", "-users", "30", "-tasks", "6", "-required", "3"}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunTableOutput(t *testing.T) {
	out := runArgs(t)
	for _, want := range []string{"mechanism=on-demand", "coverage", "avg user profit"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPerRound(t *testing.T) {
	out := runArgs(t, "-per-round")
	if !strings.Contains(out, "round") || !strings.Contains(out, "new-measure") {
		t.Errorf("per-round section missing:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	out := runArgs(t, "-json")
	var summary map[string]any
	if err := json.Unmarshal([]byte(out), &summary); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if summary["trials"] != float64(2) {
		t.Errorf("trials = %v", summary["trials"])
	}
}

func TestRunAllMechanismFlags(t *testing.T) {
	for _, m := range []string{"on-demand", "fixed", "steered", "steered-raw", "equal-weights"} {
		out := runArgs(t, "-mechanism", m)
		if !strings.Contains(out, "mechanism="+m) {
			t.Errorf("mechanism %s not echoed:\n%s", m, out)
		}
	}
}

func TestRunCompare(t *testing.T) {
	out := runArgs(t, "-compare")
	for _, want := range []string{"on-demand", "fixed", "steered", "sat-auction", "task gini"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mechanism", "bogus"}, &sb); err == nil {
		t.Error("bogus mechanism accepted")
	}
	if err := run([]string{"-algorithm", "bogus"}, &sb); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := run([]string{"-users", "-4"}, &sb); err == nil {
		t.Error("negative users accepted")
	}
	if err := run([]string{"-not-a-flag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
	for _, args := range [][]string{{"-trials", "0"}, {"-compare", "-trials", "0"}, {"-trials", "-2"}} {
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Errorf("%v: err = %v, want one naming -trials", args, err)
		}
	}
	// -compare prints its own table over its own mechanisms, so the flags
	// that shape the single-configuration output are rejected beside it.
	for _, extra := range [][]string{
		{"-json"}, {"-per-round"}, {"-trace", filepath.Join(t.TempDir(), "t.jsonl")}, {"-mechanism", "fixed"},
	} {
		err := run(append([]string{"-compare"}, extra...), &sb)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("-compare %s: err = %v, want one naming %s", extra[0], err, extra[0])
		}
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	runArgs(t, "-trace", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"round_start"`) {
		t.Errorf("trace content wrong: %.100s", data)
	}
}

// TestRunTraceWriteError pins that a trace the file system refuses fails
// the run: /dev/full accepts the open and refuses every write.
func TestRunTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	args := []string{"-trials", "1", "-users", "30", "-tasks", "6", "-required", "3", "-trace", "/dev/full"}
	if err := run(args, io.Discard); err == nil {
		t.Fatal("run with -trace /dev/full succeeded")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	args := []string{"-users", "20", "-tasks", "5", "-required", "3", "-trials", "4", "-rounds", "3"}
	var seq strings.Builder
	if err := run(append(args, "-parallel", "1"), &seq); err != nil {
		t.Fatal(err)
	}
	var par strings.Builder
	if err := run(append(args, "-parallel", "4"), &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("-parallel 4 output differs from -parallel 1:\npar:\n%s\nseq:\n%s",
			par.String(), seq.String())
	}
}
