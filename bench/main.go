// Command paybench is the repository's benchmark: whole campaigns of the
// paper's round loop and a served fleet, measured end to end with tracing
// off and layer by layer in a separate traced run.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh --workload paper-sim --seed 1 --seconds 10 --trace 0
//
// Every metric is printed as "workload metric value unit" and the last
// line is one JSON object with the verdict of the correctness checks. The
// exit status is non-zero when any check fails. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

//go:embed testdata/golden.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("paybench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		name    = flags.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flags.Int64("seed", 1, "input seed")
		seconds = flags.Float64("seconds", 10, "measured seconds")
		trace   = flags.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spans   = flags.String("spans", "", "traced run: write the span log here as JSON lines")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "paybench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "paybench: golden: %v\n", err)
		return 1
	}
	var want []string
	if *seed == 1 {
		want = golden[wl.name]
	}

	printHost(stdout, wl, *seed, *trace)
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var log []span
	if *trace == 1 {
		res, log = wl.traced(*seed, d)
	} else {
		res = wl.measure(*seed, d, want)
	}
	// A thin end-to-end percentile fails the run. The traced run's tails
	// come from half the run's time and carry no bound, so there it is
	// only noted.
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		for _, t := range res.thin {
			fmt.Fprintf(stdout, "# thin percentile: %s\n", t)
		}
	} else {
		res.problems = append(res.problems, res.thin...)
	}
	if err := res.print(stdout, wl.name, specs); err != nil {
		fmt.Fprintf(stderr, "paybench: %v\n", err)
		return 1
	}
	if *spans != "" {
		if err := writeSpans(*spans, log); err != nil {
			fmt.Fprintf(stderr, "paybench: %v\n", err)
			return 1
		}
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// printHost records the conditions of the run next to its numbers.
func printHost(w io.Writer, wl benchWorkload, seed int64, trace int) {
	fmt.Fprintf(w, "# host cpus=%d gomaxprocs=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, revision())
	fmt.Fprintf(w, "# run workload=%s seed=%d trace=%d size=%s\n", wl.name, seed, trace, wl.size)
}

// revision identifies the code under test: the VCS revision when the
// binary was built inside a git checkout, with "-dirty" when the tree had
// uncommitted changes, otherwise a digest of the module's Go sources and
// go.mod files.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "-dirty"
		}
		if rev != "" {
			return rev
		}
	}
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// allocBytes is the cumulative heap allocation of the process. It stops
// the world to flush the per-P caches, so call it outside measured time.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs without modifying it.
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}
