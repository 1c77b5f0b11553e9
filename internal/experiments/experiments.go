// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each figure sweeps the same parameter the
// paper sweeps, averages over repeated trials, and returns the plotted
// series; renderers emit ASCII tables, simple ASCII plots and CSV.
//
// Figures that plot the same simulations form one family, whose runner
// plays them once and returns all of its figures: Figs. 6(a)-9(b), Figs.
// 6(b)-8(b) with the reward trajectory, and Figs. 5(a)-(b).
package experiments

import (
	"fmt"
	"slices"
	"sort"

	"paydemand/internal/sim"
	"paydemand/internal/stats"
	"paydemand/internal/workload"
)

// Options configures an experiment run. The zero value reproduces the
// paper's setup (100 trials, users swept 40..140 by 20, 100 users for
// round-series figures), which takes a while; lower Trials for quick looks.
type Options struct {
	// Trials is the number of independent repetitions averaged per
	// configuration; zero means the paper's 100.
	Trials int
	// Seed is the base random seed; trial i of configuration c uses a
	// deterministic derivation of (Seed, c, i).
	Seed int64
	// UserSweep is the user-count axis for the vs-users figures; nil means
	// the paper's {40, 60, 80, 100, 120, 140}.
	UserSweep []int
	// SeriesUsers is the population for the vs-rounds figures; zero means
	// the paper's 100.
	SeriesUsers int
	// Rounds is the horizon for the vs-rounds figures; zero means 15 (the
	// paper's maximum deadline).
	Rounds int
	// Base allows overriding simulation parameters (area, budget, time
	// budget, ...). Population fields are overwritten by the sweep.
	Base sim.Config
	// Parallelism is the number of worker goroutines trials fan out
	// across; zero means one per available CPU (GOMAXPROCS), one runs
	// trials sequentially on the calling goroutine. Output is identical
	// at every parallelism level: trial seeds derive from the
	// (configuration, trial) index, and results are aggregated in index
	// order regardless of completion order.
	Parallelism int
	// Progress, when non-nil, is called after every finished trial with
	// the number of completed trials and the total of the figure family
	// running; each family counts from 1 again. Calls are serialized but
	// may come from worker goroutines; keep it cheap.
	Progress func(done, total int)
}

// withDefaults fills the paper's defaults.
func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 100
	}
	if o.UserSweep == nil {
		o.UserSweep = []int{40, 60, 80, 100, 120, 140}
	}
	if o.SeriesUsers == 0 {
		o.SeriesUsers = workload.DefaultNumUsers
	}
	if o.Rounds == 0 {
		o.Rounds = workload.DefaultDeadlineMax
	}
	return o
}

// Validate rejects option values that would silently corrupt a sweep:
// negative counts pass the zero-means-default check in withDefaults, run
// zero trial iterations, and leave every figure series averaging to NaN.
func (o Options) Validate() error {
	if o.Trials < 0 {
		return fmt.Errorf("experiments: Trials %d, want >= 0 (0 = paper's 100)", o.Trials)
	}
	if o.SeriesUsers < 0 {
		return fmt.Errorf("experiments: SeriesUsers %d, want >= 0 (0 = paper's 100)", o.SeriesUsers)
	}
	if o.Rounds < 0 {
		return fmt.Errorf("experiments: Rounds %d, want >= 0 (0 = paper's 15)", o.Rounds)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiments: Parallelism %d, want >= 0 (0 = GOMAXPROCS)", o.Parallelism)
	}
	for i, u := range o.UserSweep {
		if u <= 0 {
			return fmt.Errorf("experiments: UserSweep[%d] = %d, want > 0", i, u)
		}
	}
	return nil
}

// Series is one plotted line: a name and aligned X/Y vectors.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Figure is a reproduced table or figure.
type Figure struct {
	// ID is the paper's identifier, e.g. "fig6a".
	ID string `json:"id"`
	// Title describes the figure.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"x_label"`
	YLabel string `json:"y_label"`
	// Series are the plotted lines.
	Series []Series `json:"series,omitempty"`
	// Boxplots carry distribution figures (Fig. 5(b)).
	Boxplots []stats.Boxplot `json:"boxplots,omitempty"`
	// BoxLabels label the boxplots.
	BoxLabels []string `json:"box_labels,omitempty"`
	// Notes records reproduction caveats.
	Notes string `json:"notes,omitempty"`
}

// family is a set of figures computed from one set of simulations: run
// plays them once and returns one figure per ID, in ids order.
type family struct {
	ids []string
	run func(Options) ([]Figure, error)
}

// registry lists every family: the population sweeps (Figs. 6(a)-9(b),
// WST vs SAT, each ablation), the round series (Figs. 6(b)-8(b) and the
// reward trajectory), Fig. 5's two views of one run, and the tables and
// the truthfulness audit on their own.
var registry = func() []family {
	r := []family{
		{[]string{"table1"}, tableI},
		{[]string{"table2"}, tableII},
		{[]string{"table3"}, tableIII},
		{[]string{"fig5a", "fig5b"}, fig5},
		{[]string{"fig6b", "fig7b", "fig8b", "ext-reward-trajectory"}, roundSeries},
		{[]string{"ext-truthfulness"}, extTruthfulness},
	}
	for _, s := range append([]sweep{paperSweep, satVsWST}, ablationSweeps...) {
		f := family{run: s.run}
		for _, v := range s.views {
			f.ids = append(f.ids, v.id)
		}
		r = append(r, f)
	}
	return r
}()

// IDs returns the registered figure IDs, sorted.
func IDs() []string {
	var ids []string
	for _, f := range registry {
		ids = append(ids, f.ids...)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates the figure registered as id.
func Run(id string, opts Options) (Figure, error) {
	figs, err := RunIDs([]string{id}, opts, nil)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// RunIDs regenerates the figures registered as ids and returns them in
// ids order. Each family runs once, when the first of its IDs comes up,
// so figures that plot the same simulations share them; started, when
// non-nil, gets the family's IDs just before it runs, for labeling
// Options.Progress reports.
func RunIDs(ids []string, opts Options, started func(family []string)) ([]Figure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ran := make([][]Figure, len(registry))
	out := make([]Figure, len(ids))
	for i, id := range ids {
		fam := slices.IndexFunc(registry, func(f family) bool { return slices.Contains(f.ids, id) })
		if fam < 0 {
			return nil, fmt.Errorf("experiments: unknown figure %q (known: %v)", id, IDs())
		}
		if ran[fam] == nil {
			if started != nil {
				started(registry[fam].ids)
			}
			var err error
			if ran[fam], err = registry[fam].run(opts); err != nil {
				return nil, err
			}
		}
		out[i] = ran[fam][slices.Index(registry[fam].ids, id)]
	}
	return out, nil
}

// trialSeed derives the seed of one trial within one configuration so that
// every (figure, configuration, trial) triple is reproducible and distinct.
func trialSeed(base int64, config, trial int) int64 {
	h := uint64(base) ^ 0x9e3779b97f4a7c15 // golden-ratio constant splits seeds apart
	h = (h + uint64(config+1)) * 0xbf58476d1ce4e5b9
	h = (h + uint64(trial+1)) * 0x94d049bb133111eb
	return int64(h &^ (1 << 63))
}
