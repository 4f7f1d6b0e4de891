// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §5). Each experiment is a named generator that runs
// the relevant pipeline on the simulation substrate and returns a typed
// Table whose rows mirror the series the paper plots. The benchmark
// harness (bench_test.go) and the rhythm CLI both print these tables.
//
// # Thread safety
//
// A Context is safe for concurrent use: RunAll executes experiments on a
// worker pool, and the shared state a Context caches — deployed systems,
// grid comparisons, the threshold sweep — is held in sim.Memo singleflight
// caches and sync.Once slots, so concurrent experiments needing the same
// expensive artifact compute it once and block for the result while
// distinct artifacts compute in parallel. Every experiment derives its
// randomness from content-keyed substreams of Opts.Seed (sim.RNG.Fork /
// sim.SubSeed; never a shared generator), which is why a table is
// byte-identical no matter how many workers ran the registry — the
// property cmd/rhythm's TestDeterminismHarness locks in. Tables returned by
// Run/RunAll are fresh per call and owned by the caller.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rhythm/internal/core"
	"rhythm/internal/faults"
	"rhythm/internal/obs"
	"rhythm/internal/profiler"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries derived headline numbers (the values EXPERIMENTS.md
	// compares against the paper).
	Notes []string
	// Checks are the notes that carry a verdict against the paper, in
	// note order, as data.
	Checks []Check
}

// Check is one verdict against the paper: the note as rendered, verdict
// suffix included, and whether the claim held.
type Check struct {
	Note  string
	Holds bool
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a formatted headline note.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Check appends a formatted headline note that states a claim of the
// paper, suffixed " [OK]" when it holds and " [MISMATCH]" when it does
// not, and records the verdict in Checks.
func (t *Table) Check(holds bool, format string, args ...any) {
	verdict := " [MISMATCH]"
	if holds {
		verdict = " [OK]"
	}
	c := Check{Note: fmt.Sprintf(format, args...) + verdict, Holds: holds}
	t.Notes = append(t.Notes, c.Note)
	t.Checks = append(t.Checks, c)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options shapes an experiment run.
type Options struct {
	// Seed drives all randomness (default 2020, the paper's year).
	Seed uint64
	// Quick trades precision for speed: coarser sweeps and shorter runs.
	// Benches, tests and the CLI default to Quick; `rhythm -quick=false`
	// selects the full evaluation scale.
	Quick bool
	// Jobs bounds the worker goroutines used by RunAll and by the
	// parallel sweeps inside deployments, grid prefetches and threshold
	// sweeps (0 = runtime.NumCPU()). Jobs affects wall-clock time only:
	// every table is byte-identical for every worker count.
	Jobs int
	// Faults injects a deterministic fault schedule (internal/faults)
	// into every co-location run the experiments perform — the CLI's
	// -faults flag. Nil (the default) leaves every experiment bit-frozen
	// on its golden output; setting it deliberately changes the tables
	// to show the system under the configured storm.
	Faults *faults.Schedule
	// Scenario is the workload spec the on-demand "scenario" experiment
	// runs (the CLI's -scenario flag). Nil is fine for every other
	// experiment; the scenario family is excluded from IDs()/`run all`,
	// so this field never affects the golden evaluation output.
	Scenario *workload.Spec
	// Fleet names the fleet-size preset the on-demand "fleet" experiment
	// runs (the CLI's -fleet flag); empty selects fleet.DefaultPreset.
	// Like Scenario, the fleet family is excluded from IDs()/`run all`.
	Fleet string
	// Policy names the registered candidate policy the on-demand
	// "scenario" experiment pits against Heracles (the CLI's -policy
	// flag). Empty defers to the spec's `policy` field, then to "rhythm"
	// — the default keeps the scenario output byte-identical to the
	// pre-registry tables. Names resolve through the controller registry
	// (controller.Names()); the tournament experiment ignores this and
	// always runs the whole registry.
	Policy string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2020
	}
	return o
}

// Context caches expensive shared state (deployed Rhythm systems, grid
// comparisons, threshold sweeps) across experiments in one process,
// mirroring the paper's profile-once design. Each keyed cache is a
// sim.Memo: concurrent experiments wanting the same artifact share one
// computation, while distinct artifacts proceed in parallel.
type Context struct {
	Opts Options

	systems sim.Memo[string, *core.System]
	grid    sim.Memo[gridKey, *core.Comparison]

	gridOnce sync.Once
	gridErr  error

	sweepOnce  sync.Once
	sweepErr   error
	sweepSlack []sweepPoint
	sweepLoad  []sweepPoint
}

// NewContext returns a fresh experiment context.
func NewContext(opts Options) *Context {
	return &Context{Opts: opts.withDefaults()}
}

// jobs resolves the context's worker count.
func (c *Context) jobs() int { return sim.Jobs(c.Opts.Jobs) }

// ScratchRNG returns the experiment-private random substream for label
// (by convention the experiment ID). Every call builds the stream from a
// fresh parent, so concurrent experiments never touch a shared generator,
// and the stream depends only on (Opts.Seed, label) — not on which worker
// runs the experiment or in what order.
func (c *Context) ScratchRNG(label string) *sim.RNG {
	return sim.NewRNG(c.Opts.Seed).Fork(label)
}

// profileOptions returns the sweep configuration for the context scale.
func (c *Context) profileOptions() profiler.Options {
	if c.Opts.Quick {
		return profiler.Options{
			Levels:        []float64{0.1, 0.3, 0.5, 0.65, 0.75, 0.85, 0.93},
			LevelDuration: 5 * time.Second,
			UseTracer:     true,
			TraceRequests: 300,
			Seed:          c.Opts.Seed,
			Jobs:          c.Opts.Jobs,
		}
	}
	return profiler.Options{
		LevelDuration: 12 * time.Second,
		UseTracer:     true,
		Seed:          c.Opts.Seed,
		Jobs:          c.Opts.Jobs,
	}
}

func (c *Context) slackOptions() profiler.SlackOptions {
	if c.Opts.Quick {
		return profiler.SlackOptions{StepDuration: 80 * time.Second, Seed: c.Opts.Seed + 1, Jobs: c.Opts.Jobs}
	}
	return profiler.SlackOptions{Seed: c.Opts.Seed + 1, Jobs: c.Opts.Jobs}
}

// System returns the deployed Rhythm system for the named service,
// deploying (profiling + thresholding) on first use. Concurrent callers
// for one service share a single deployment; deployments of different
// services proceed in parallel (and hit the process-wide profile cache,
// so fresh contexts with the same options redeploy almost for free).
func (c *Context) System(service string) (*core.System, error) {
	sys, _, err := c.systems.Do(service, func() (sys *core.System, err error) {
		svc, err := workload.ByName(service)
		if err != nil {
			return nil, err
		}
		charge("deploy/"+service, func() {
			sys, err = core.Deploy(svc, core.Options{
				Profile: c.profileOptions(),
				Slack:   c.slackOptions(),
				Seed:    c.Opts.Seed,
				Jobs:    c.Opts.Jobs,
			})
		})
		return sys, err
	})
	return sys, err
}

// Runner generates one experiment table.
type Runner func(*Context) (*Table, error)

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
	// OnDemand marks an experiment that runs only when named (the
	// resilience storms, scenarios, the fleet, the tournament,
	// calibration): IDs(), and therefore `run all` and the golden stdout,
	// exclude it; ScenarioIDs() lists it.
	OnDemand bool
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// registered returns the sorted identifiers whose OnDemand flag equals
// onDemand.
func registered(onDemand bool) []string {
	var out []string
	for id, e := range registry {
		if e.OnDemand == onDemand {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// IDs returns the registered paper-evaluation experiment identifiers,
// sorted. On-demand experiments (ScenarioIDs) are excluded: `run all`
// expands to exactly this list.
func IDs() []string { return registered(false) }

// ScenarioIDs returns the on-demand experiment identifiers, sorted.
func ScenarioIDs() []string { return registered(true) }

// Get returns the registered experiment.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have: %s)",
			id, strings.Join(append(IDs(), ScenarioIDs()...), ", "))
	}
	return e, nil
}

// Run executes the named experiment under the context. When an
// observability bus is installed the run is bracketed with experiment
// start/end events, so a trace groups every engine run under the
// experiment that caused it.
func (c *Context) Run(id string) (*Table, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	var sc obs.Scope
	if bus := obs.Active(); bus != nil {
		sc = bus.Scope("experiment:" + id)
		sc.Experiment(id, "start")
		// The id-labeled counter records in the metrics artifact which
		// experiments produced it; `rhythm calibrate` reads the labels
		// back to know what to re-run (calibration.ExperimentIDs).
		bus.Counter("rhythm_experiments_total", "id", id).Inc()
	}
	tab, err := e.Run(c)
	sc.Experiment(id, "end")
	return tab, err
}

// f2 formats a float with 2 decimals; f3 with 3; pct as a percentage.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ms(v float64) string  { return fmt.Sprintf("%.2fms", 1000*v) }
