package experiments

import (
	"context"
	"runtime/pprof"
	"time"

	"rhythm/internal/sim"
)

// Result is the outcome of one experiment inside a RunAll batch.
type Result struct {
	ID    string
	Table *Table
	Err   error
	// Elapsed is the wall-clock time from this experiment's start to its
	// end. It includes time spent blocked on singleflight work (a
	// deployment, the comparison grid) that another experiment started,
	// and time its own pooled cells waited for a worker, so it measures
	// neither this experiment's CPU nor its share of the batch: a sum of
	// Elapsed over a batch counts shared work once per waiter.
	Elapsed time.Duration
}

// RunAll executes the experiments named by ids (every registered
// experiment when ids is empty) on up to jobs worker goroutines (0 =
// Opts.Jobs). Results are returned in ids order, one per id, errors
// included in place rather than aborting the batch — callers decide
// whether a failed figure sinks the run.
//
// Tables are byte-identical to a jobs=1 run for any worker count: every
// experiment draws randomness only from content-keyed substreams of
// Opts.Seed, and all cross-experiment state is cached under singleflight
// keys whose values do not depend on which worker computes them first.
// cmd/rhythm's TestDeterminismHarness holds this property down.
//
// Each experiment runs under the pprof label experiment=<id>, which the
// goroutines of its pooled cells inherit, so a CPU profile of the batch
// splits by experiment (shared work is labelled by charge instead).
func (c *Context) RunAll(ids []string, jobs int) []Result {
	if len(ids) == 0 {
		ids = IDs()
	}
	if jobs <= 0 {
		jobs = c.jobs()
	}
	out := make([]Result, len(ids))
	sim.ForEach(len(ids), jobs, func(i int) {
		pprof.Do(context.Background(), pprof.Labels("experiment", ids[i]), func(context.Context) {
			start := time.Now()
			tab, err := c.Run(ids[i])
			out[i] = Result{ID: ids[i], Table: tab, Err: err, Elapsed: time.Since(start)}
		})
	})
	return out
}

// charge runs fn to completion on a fresh goroutine that carries the
// single pprof label work=<work>, so a CPU profile charges shared
// singleflight work (a deployment, the grid prefetch, the threshold
// sweep) to the work itself rather than to whichever experiment asked
// for it first, and the caller's own labels are left as they were. A
// panic in fn is re-raised on the caller as a *sim.WorkerPanic that keeps
// fn's stack.
func charge(work string, fn func()) {
	var panicked *sim.WorkerPanic
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				panicked = sim.Recovered(r)
			}
		}()
		pprof.Do(context.Background(), pprof.Labels("work", work), func(context.Context) { fn() })
	}()
	<-done
	if panicked != nil {
		panic(panicked)
	}
}
