// Command benchpairs sizes a performance change with the repo benchmark.
// It checks out a base revision as a detached git worktree under
// .bench_build/, then runs `bash bench/run.sh` for one workload in the
// base and in the working tree, alternately, for a number of pairs. Pair
// i runs at seed 400+i, and the side that runs first swaps every pair so
// that neither side always runs on a warmer or cooler machine. It prints
// each pair's end-to-end metrics (the "end_to_end" list of
// BENCHMARK.json) and, per metric, the median change/base ratio and the
// number of pairs in which the change was better. It fails when a run
// reports "correct": false, and removes the worktree on exit.
//
// Run it from the root of a checkout, usually through make:
//
//	make bench-pairs WORKLOAD=paper-sim PAIRS=10 SECONDS=20 BASE=HEAD
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// summary is the last line bench/run.sh prints.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metric is one end-to-end entry of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	base := flag.String("base", "HEAD", "git revision to compare the working tree against")
	workload := flag.String("workload", "paper-sim", "benchmark workload")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	pairs := flag.Int("pairs", 10, "number of base/change pairs")
	flag.Parse()
	if err := run(*base, *workload, *seconds, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(base, workload string, seconds, pairs int) error {
	if pairs < 1 || seconds < 1 {
		return fmt.Errorf("pairs %d and seconds %d must be at least 1", pairs, seconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	top, err := output(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(top)
	metrics, err := endToEnd(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	wt := filepath.Join(root, ".bench_build", "pairs-base")
	removeWorktree(root, wt) // a worktree left by an interrupted run
	if _, err := output(ctx, root, "git", "worktree", "add", "--detach", wt, base); err != nil {
		return err
	}
	defer removeWorktree(root, wt)

	sides := [2]string{wt, root} // base, change
	ratios := make(map[string][]float64)
	better := make(map[string]int)
	for i := 0; i < pairs; i++ {
		seed := 400 + i
		var res [2]summary
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			out, err := output(ctx, sides[s], "bash", "bench/run.sh",
				"--workload", workload, "--seconds", strconv.Itoa(seconds), "--seed", strconv.Itoa(seed))
			if err != nil {
				return err
			}
			if res[s], err = lastSummary(out); err != nil {
				return fmt.Errorf("%s at seed %d: %w", sides[s], seed, err)
			}
			if !res[s].Correct {
				return fmt.Errorf("%s at seed %d: \"correct\": false", sides[s], seed)
			}
		}
		first := "base"
		if order[0] == 1 {
			first = "change"
		}
		fmt.Printf("pair %d  seed %d  %s first  failed %d/%d base, %d/%d change\n",
			i+1, seed, first, res[0].Failed, res[0].Attempted, res[1].Failed, res[1].Attempted)
		for _, m := range metrics {
			b, c := res[0].Metrics[m.Name].Value, res[1].Metrics[m.Name].Value
			r := c / b
			ratios[m.Name] = append(ratios[m.Name], r)
			if m.Better == "lower" && c < b || m.Better == "higher" && c > b {
				better[m.Name]++
			}
			fmt.Printf("  %-20s base %-12.6g change %-12.6g ratio %.3f\n", m.Name, b, c, r)
		}
	}
	fmt.Printf("\n%s: %d pairs of %d s, change against %s\n", workload, pairs, seconds, base)
	for _, m := range metrics {
		fmt.Printf("  %-20s median ratio %.3f  better (%s) in %d/%d pairs\n",
			m.Name, median(ratios[m.Name]), m.Better, better[m.Name], pairs)
	}
	return nil
}

// endToEnd reads the end-to-end metric list of a BENCHMARK.json.
func endToEnd(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// lastSummary decodes the JSON summary on the last non-empty line of a
// run's output.
func lastSummary(out string) (summary, error) {
	var s summary
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return s, fmt.Errorf("no JSON summary on the last line %q: %w", last, err)
	}
	return s, nil
}

// output runs a command in dir and returns its standard output; its
// standard error passes through.
func output(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), errors.Join(err, ctx.Err()))
	}
	return out.String(), nil
}

// removeWorktree removes the base worktree and its git metadata, if any.
// It is best effort, so its errors are dropped: usually there is nothing
// to remove.
func removeWorktree(root, wt string) {
	cmd := exec.Command("git", "worktree", "remove", "--force", wt)
	cmd.Dir = root
	_ = cmd.Run()
	_ = os.RemoveAll(wt)
	cmd = exec.Command("git", "worktree", "prune")
	cmd.Dir = root
	_ = cmd.Run()
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
