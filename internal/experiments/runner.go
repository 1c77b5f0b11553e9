package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the shared trial-execution engine behind every
// figure runner. A figure sweep is a grid of (configuration, trial)
// pairs whose seeds derive deterministically from (Options.Seed,
// configuration, trial), so the pairs are independent and can run in any
// order — the engine fans them across a worker pool and collects results
// into index-ordered slots, making the aggregated output identical to
// the sequential nested loops at any parallelism level.

// workers resolves Options.Parallelism to a concrete worker count:
// zero means one worker per available CPU, one preserves the historical
// sequential behavior exactly (same goroutine, no pool).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunTrials executes run(i) for every i in [0, n) on the figure runners'
// worker pool and returns the results in index order: parallelism 0
// means one worker per CPU (GOMAXPROCS), 1 runs every trial on the
// calling goroutine, and the output does not depend on it. The first
// error in index order among the failed trials is returned.
func RunTrials[T any](n, parallelism int, run func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("experiments: %d trials, want >= 0", n)
	}
	out, err := runTrials(Options{Trials: n, Parallelism: parallelism}, 1,
		func(_, i int) (T, error) { return run(i) })
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// runTrials executes run(config, trial) for every pair in
// [0, configs) x [0, o.Trials) and returns the results indexed as
// out[config][trial]. Jobs are distributed across o.workers()
// goroutines; the result layout (and therefore everything aggregated
// from it in order) does not depend on the worker count. The first
// error — first in (config, trial) order among the jobs that failed —
// is returned and cancels jobs not yet started; in-flight trials finish
// but their results are discarded.
func runTrials[T any](o Options, configs int, run func(config, trial int) (T, error)) ([][]T, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	out := make([][]T, configs)
	for c := range out {
		out[c] = make([]T, o.Trials)
	}
	total := configs * o.Trials
	if total == 0 {
		return out, nil
	}
	workers := o.workers()
	if workers > total {
		workers = total
	}

	if workers <= 1 {
		done := 0
		for c := 0; c < configs; c++ {
			for t := 0; t < o.Trials; t++ {
				v, err := run(c, t)
				if err != nil {
					return nil, err
				}
				out[c][t] = v
				done++
				if o.Progress != nil {
					o.Progress(done, total)
				}
			}
		}
		return out, nil
	}

	var (
		next atomic.Int64 // next job index to claim
		stop atomic.Bool  // set on first failure; unclaimed jobs exit

		mu          sync.Mutex // guards completed, firstErr/firstErrIdx and Progress calls
		completed   int        // successfully finished jobs
		firstErr    error
		firstErrIdx = math.MaxInt

		wg sync.WaitGroup
	)
	next.Store(-1)
	fail := func(idx int, err error) {
		mu.Lock()
		defer mu.Unlock()
		// Keep the error of the earliest job so the report is stable
		// when several trials fail concurrently.
		if idx < firstErrIdx {
			firstErr, firstErrIdx = err, idx
		}
	}
	// Counting under the lock that serializes Progress keeps the
	// reported counts strictly increasing.
	progress := func() {
		mu.Lock()
		defer mu.Unlock()
		completed++
		o.Progress(completed, total)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1))
				if idx >= total || stop.Load() {
					return
				}
				c, t := idx/o.Trials, idx%o.Trials
				v, err := run(c, t)
				if err != nil {
					stop.Store(true)
					fail(idx, err)
					return
				}
				out[c][t] = v
				if o.Progress != nil {
					progress()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
