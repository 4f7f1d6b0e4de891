// Command rhythm is the CLI for the Rhythm reproduction: it lists and runs
// the paper's evaluation experiments, profiles LC services, replays
// experiments with full decision traces, and prints the workload catalog.
//
// Usage:
//
//	rhythm list                     # registered experiments
//	rhythm run <experiment> [...]   # regenerate tables/figures (or "all")
//	rhythm trace <experiment>       # replay one experiment with decision traces
//	rhythm profile <service>        # offline profiling of one LC service
//	rhythm catalog                  # Table 1 workloads and BE jobs
//	rhythm scenario <spec-file>     # run a workload-spec scenario (SCENARIOS.md)
//	rhythm scenario -validate <spec-file>...  # check spec files end to end
//	rhythm calibrate -observed F    # validate a fresh run against an exported
//	                                # metrics snapshot or trace (-fit tunes
//	                                # workload corrections; DESIGN.md §13)
//
// Flags:
//
//	-quick        run at reduced scale (default true; -quick=false for the
//	              full evaluation scale)
//	-seed N       RNG seed (default 2020)
//	-jobs N       parallel worker count (default runtime.NumCPU(); 1 runs
//	              serially; 0 or negative is a usage error). Tables are
//	              byte-identical for every N — only wall-clock time
//	              changes. Tables go to stdout; timing, CPU use and
//	              profile-cache statistics go to stderr, so redirected
//	              output is stable across worker counts.
//	-cpuprofile F write a CPU profile of the invocation to F. Samples
//	              carry pprof labels experiment=<id> and, for shared
//	              deployments, the grid prefetch and the threshold
//	              sweep, work=deploy/<service>, work=grid or work=sweep
//	              (`go tool pprof -tags`).
//	-trace-out F  write the observability event stream to F (controller
//	              decisions with load/slack/action/reason, engine ticks,
//	              BE lifecycle, cache lookups, pool dispatches). Tracing
//	              never changes stdout: tables stay byte-identical.
//	-trace-format jsonl | chrome (default jsonl). chrome emits Chrome
//	              trace_event JSON for chrome://tracing / ui.perfetto.dev.
//	-metrics-out F  write a Prometheus text-format snapshot of the
//	              counters/gauges/histograms accumulated during the run.
//	-faults X     inject a deterministic fault schedule into every run:
//	              a canned preset (surges, storm, chaos) or a JSON
//	              schedule file. Unset (the default) leaves every table
//	              bit-frozen on its golden output.
//	-scenario F   load the workload-spec file F (SCENARIOS.md format) for
//	              the on-demand scenario experiment (`run scenario`).
//	              The scenario family is excluded from `run all`, so the
//	              golden evaluation output never depends on this flag.
//	-fleet P      fleet-size preset (fleet4, fleet100, fleet1000) for the
//	              on-demand fleet experiment (`run fleet`; default
//	              fleet100). Like scenario, the fleet family is excluded
//	              from `run all`.
//	-policy P     candidate policy for the scenario experiment, resolved
//	              through the controller registry (rhythm, heracles, none,
//	              predictive, scoring, rack-central, plus anything
//	              registered via the facade). Overrides the spec's
//	              `policy` field; unknown names are usage errors listing
//	              the registry. The tournament experiment (`run
//	              tournament`) always runs every registered policy.
//
// Exit codes: 0 on success, 1 when an experiment or profile fails while
// running, 2 for usage errors (unknown command or experiment id, missing
// arguments, invalid flag values).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/cliflags"
	"rhythm/internal/core"
	"rhythm/internal/experiments"
	"rhythm/internal/obs"
	"rhythm/internal/profiler"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable argv and streams so that flag/argument
// validation — including exit codes — is table-testable. Usage errors
// (bad flags, unknown commands or experiment ids, invalid trace formats)
// return 2 before any experiment work starts; runtime failures return 1.
func realMain(argv []string, stdout, rawStderr io.Writer) (code int) {
	// All diagnostic output funnels through one mutex-guarded writer so
	// lines from parallel workers and sinks never interleave mid-line
	// (tables on stdout are unaffected).
	stderr := obs.NewSyncWriter(rawStderr)

	fs := flag.NewFlagSet("rhythm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var common cliflags.Common
	var traceFlags cliflags.Trace
	var faultFlags cliflags.Faults
	var scenFlags cliflags.Scenario
	var fleetFlags cliflags.Fleet
	var policyFlags cliflags.Policy
	common.Register(fs)
	traceFlags.Register(fs)
	faultFlags.Register(fs)
	scenFlags.Register(fs)
	fleetFlags.Register(fs)
	policyFlags.Register(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the invocation to `file`")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	args := fs.Args()
	if len(args) == 0 {
		usage(fs, stderr)
		return 2
	}
	// The shared validation path (internal/cliflags) rejects -jobs < 1
	// and unknown trace formats with the same messages in every binary.
	for _, err := range []error{common.Validate(), traceFlags.Validate(), fleetFlags.Validate(), policyFlags.Validate()} {
		if err != nil {
			fmt.Fprintf(stderr, "rhythm: %v\n", err)
			return 2
		}
	}
	sched, err := faultFlags.Resolve(common.Seed, 0)
	if err != nil {
		fmt.Fprintf(stderr, "rhythm: %v\n", err)
		return 2
	}

	// The scenario subcommand: `rhythm scenario -validate <file>...`
	// checks spec files end to end and exits; `rhythm scenario <file>`
	// runs the scenario experiment on the file, shorthand for
	// `rhythm -scenario <file> run scenario`.
	if args[0] == "scenario" {
		sub := flag.NewFlagSet("rhythm scenario", flag.ContinueOnError)
		sub.SetOutput(stderr)
		validate := sub.Bool("validate", false, "validate the spec files and exit")
		sub.Usage = func() {
			fmt.Fprintln(stderr, "usage: rhythm scenario [-validate] <spec-file>...")
			sub.PrintDefaults()
		}
		if err := sub.Parse(args[1:]); err != nil {
			return 2
		}
		files := sub.Args()
		if *validate {
			if len(files) == 0 {
				fmt.Fprintln(stderr, "rhythm: scenario -validate needs at least one spec file")
				return 2
			}
			return validateScenarios(files, common.Seed, stdout, stderr)
		}
		switch {
		case len(files) == 1 && scenFlags.Path == "":
			scenFlags.Path = files[0]
		case len(files) == 0 && scenFlags.Path != "":
			// -scenario carried the file.
		default:
			fmt.Fprintln(stderr, "rhythm: scenario needs exactly one spec file (positional or -scenario)")
			return 2
		}
		args = []string{"run", "scenario"}
	}
	spec, err := scenFlags.Resolve()
	if err != nil {
		fmt.Fprintf(stderr, "rhythm: %v\n", err)
		return 2
	}

	// The calibrate subcommand closes the observability loop: it reads an
	// exported artifact back and validates a fresh run against it
	// (cmd/rhythm/calibrate.go). It installs its own private bus for the
	// re-run, so combining it with the global trace/metrics flags is a
	// usage error rather than a silently shared bus.
	var calFlags cliflags.Calibrate
	if args[0] == "calibrate" {
		sub := flag.NewFlagSet("rhythm calibrate", flag.ContinueOnError)
		sub.SetOutput(stderr)
		calFlags.Register(sub)
		sub.Usage = func() {
			fmt.Fprintln(stderr, "usage: rhythm [flags] calibrate -observed <metrics.prom|trace.jsonl> [-fit] [-report out.json]")
			sub.PrintDefaults()
		}
		if err := sub.Parse(args[1:]); err != nil {
			return 2
		}
		rest := sub.Args()
		switch {
		case len(rest) == 1 && calFlags.Observed == "":
			calFlags.Observed = rest[0] // positional artifact shorthand
		case len(rest) == 0:
		default:
			fmt.Fprintln(stderr, "rhythm: calibrate takes one observed artifact (positional or -observed)")
			return 2
		}
		if err := calFlags.Validate(); err != nil {
			fmt.Fprintf(stderr, "rhythm: %v\n", err)
			return 2
		}
		if traceFlags.Out != "" || traceFlags.MetricsOut != "" {
			fmt.Fprintln(stderr, "rhythm: calibrate re-runs experiments on a private bus; it cannot be combined with -trace-out or -metrics-out")
			return 2
		}
	}

	// The trace subcommand is `run` for a single experiment with the bus
	// forced on: default the trace file from the experiment id when the
	// flag was not given.
	tracing := args[0] == "trace"
	if tracing {
		if len(args) != 2 {
			fmt.Fprintln(stderr, "rhythm: trace needs exactly one experiment id")
			return 2
		}
		if _, err := experiments.Get(args[1]); err != nil {
			fmt.Fprintf(stderr, "rhythm: %v (run \"rhythm list\" for the registry)\n", err)
			return 2
		}
		if traceFlags.Out == "" {
			ext := ".trace.jsonl"
			if traceFlags.Format == cliflags.FormatChrome {
				ext = ".trace.json"
			}
			traceFlags.Out = args[1] + ext
		}
	}

	// Unknown run ids, and a scenario run or trace without a loaded spec,
	// are usage errors caught before setupObs, so they leave no trace or
	// metrics file behind.
	if args[0] == "run" {
		if code := validateRunIDs(args[1:], stderr); code != 0 {
			return code
		}
	}
	if (args[0] == "run" || tracing) && spec == nil && slices.Contains(args[1:], "scenario") {
		fmt.Fprintln(stderr, "rhythm: the scenario experiment needs -scenario <spec-file>")
		return 2
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "rhythm: %v\n", err)
			return 2
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "rhythm: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	bus, finish, code := setupObs(traceFlags.Out, traceFlags.Format, traceFlags.MetricsOut, stderr)
	if code != 0 {
		return code
	}
	defer finish()

	ctx := experiments.NewContext(experiments.Options{
		Quick: common.Quick, Seed: common.Seed, Jobs: common.Jobs, Faults: sched,
		Scenario: spec, Fleet: fleetFlags.Preset, Policy: policyFlags.Name,
	})
	switch args[0] {
	case "list":
		err = list(stdout)
	case "run":
		err = run(ctx, args[1:], stdout, stderr)
	case "trace":
		err = run(ctx, args[1:2], stdout, stderr)
		if err == nil {
			traceSummary(bus, traceFlags.Out, traceFlags.MetricsOut, stderr)
		}
	case "profile":
		err = profile(ctx, args[1:], stdout)
	case "calibrate":
		return runCalibrate(ctx, calFlags, spec != nil, stdout, stderr)
	case "catalog":
		err = catalog(stdout)
	default:
		fmt.Fprintf(stderr, "rhythm: unknown command %q\n", args[0])
		usage(fs, stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "rhythm:", err)
		return 1
	}
	return 0
}

// startCPUProfile starts a runtime/pprof CPU profile into a new file at
// path. The returned stop ends the profile and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// setupObs installs the observability bus when any of the trace/metrics
// flags ask for one. The returned finish closes sinks, writes the metrics
// snapshot and uninstalls the bus; it is safe to call when no bus was
// installed. A non-zero code reports a usage-level failure (unwritable
// output file).
func setupObs(traceOut, traceFormat, metricsOut string, stderr *obs.SyncWriter) (*obs.Bus, func(), int) {
	if traceOut == "" && metricsOut == "" {
		return nil, func() {}, 0
	}
	var sinks []obs.Sink
	var traceFile *os.File
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "rhythm:", err)
			return nil, nil, 2
		}
		traceFile = f
		if traceFormat == "chrome" {
			sinks = append(sinks, obs.NewChromeSink(f))
		} else {
			sinks = append(sinks, obs.NewJSONLSink(f))
		}
	}
	bus := obs.NewBus(sinks...)
	obs.Install(bus)
	finish := func() {
		obs.Uninstall()
		if err := bus.Close(); err != nil {
			fmt.Fprintln(stderr, "rhythm: closing trace sink:", err)
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintln(stderr, "rhythm: closing trace file:", err)
			}
		}
		if metricsOut != "" {
			f, err := os.Create(metricsOut)
			if err != nil {
				fmt.Fprintln(stderr, "rhythm:", err)
				return
			}
			if err := bus.WriteMetrics(f); err != nil {
				fmt.Fprintln(stderr, "rhythm: writing metrics:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "rhythm: closing metrics file:", err)
			}
		}
	}
	return bus, finish, 0
}

// traceSummary prints what the trace captured: events by kind and the
// decision mix, so a replay is interpretable without opening the file.
func traceSummary(bus *obs.Bus, traceOut, metricsOut string, stderr *obs.SyncWriter) {
	counts := bus.EventCounts()
	kinds := make([]string, 0, len(counts))
	total := uint64(0)
	for k, n := range counts {
		kinds = append(kinds, k)
		total += n
	}
	sort.Strings(kinds)
	fmt.Fprintf(stderr, "\ntrace: %d events -> %s\n", total, traceOut)
	for _, k := range kinds {
		fmt.Fprintf(stderr, "  %-10s %d\n", k, counts[k])
	}
	if metricsOut != "" {
		fmt.Fprintf(stderr, "metrics snapshot -> %s\n", metricsOut)
	}
}

// validateRunIDs rejects a run invocation with no ids or with unknown
// experiment ids before any experiment starts; it returns 0 when ids are
// valid and the usage exit code otherwise.
func validateRunIDs(ids []string, stderr io.Writer) int {
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "rhythm: run needs experiment ids (or \"all\")")
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		return 0
	}
	for _, id := range ids {
		if _, err := experiments.Get(id); err != nil {
			fmt.Fprintf(stderr, "rhythm: %v (run \"rhythm list\" for the registry)\n", err)
			return 2
		}
	}
	return 0
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintf(stderr, `rhythm — EuroSys'20 Rhythm reproduction

usage:
  rhythm [flags] list
  rhythm [flags] run <experiment>... | all
  rhythm [flags] trace <experiment>
  rhythm [flags] profile <service>
  rhythm [flags] catalog
  rhythm [flags] scenario <spec-file>
  rhythm [flags] scenario -validate <spec-file>...
  rhythm [flags] calibrate -observed <metrics.prom|trace.jsonl> [-fit] [-report out.json]

flags:
`)
	fs.PrintDefaults()
}

func list(stdout io.Writer) error {
	for _, id := range append(experiments.IDs(), experiments.ScenarioIDs()...) {
		e, err := experiments.Get(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-24s %s\n", e.ID, e.Title)
	}
	return nil
}

func run(ctx *experiments.Context, ids []string, stdout, stderr io.Writer) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	cpu0 := cpuUsed()
	start := time.Now()
	results := ctx.RunAll(ids, 0)
	wall := time.Since(start)
	cpu := cpuUsed() - cpu0

	// Tables on stdout, in request order, regardless of completion order;
	// all timing on stderr so stdout is byte-identical for every -jobs.
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", res.ID, res.Err)
		}
		fmt.Fprintln(stdout, res.Table)
		fmt.Fprintf(stderr, "(%s generated in %v)\n",
			res.ID, res.Elapsed.Round(time.Millisecond))
	}
	hits, misses := profiler.CacheStats()
	fmt.Fprintf(stderr,
		"\n%d experiments in %v wall, %v CPU (%.2f busy, jobs=%d)\n",
		len(results), wall.Round(time.Millisecond), cpu.Round(time.Millisecond),
		cpu.Seconds()/wall.Seconds(), sim.Jobs(ctx.Opts.Jobs))
	fmt.Fprintf(stderr, "profile cache: %d hits, %d misses\n", hits, misses)
	return nil
}

func profile(ctx *experiments.Context, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("profile needs exactly one service name")
	}
	sys, err := ctx.System(args[0])
	if err != nil {
		return err
	}
	printSystem(sys, stdout)
	return nil
}

func printSystem(sys *core.System, stdout io.Writer) {
	fmt.Fprintf(stdout, "service: %s (max load %.0f QPS)\n", sys.Service.Name, sys.Service.MaxLoadQPS)
	fmt.Fprintf(stdout, "derived SLA (worst solo p99 at max load): %.2f ms\n", sys.SLA*1000)
	fmt.Fprintf(stdout, "%-16s %12s %6s %6s %8s %10s %10s\n",
		"servpod", "contribution", "rho", "alpha", "weight", "loadlimit", "slacklimit")
	for _, c := range sys.Profile.Contributions {
		th := sys.Thresholds[c.Pod]
		fmt.Fprintf(stdout, "%-16s %12.3f %6.2f %6.2f %8.3f %10.2f %10.3f\n",
			c.Pod, c.Normalized, c.Rho, c.Alpha, c.Weight, th.Loadlimit, th.Slacklimit)
	}
}

// validateScenarios checks each workload-spec file end to end: decode +
// field validation (workload.LoadSpec), service materialization
// including the saturation checks (BuildService), the full arrival-mix
// build including trace-file reads (LoadPattern at the same substream a
// run would use), and the BE job mix. The per-file report goes to
// stdout; the exit code is 0 only when every file is valid.
func validateScenarios(files []string, seed uint64, stdout, stderr io.Writer) int {
	bad := 0
	for _, file := range files {
		err := func() error {
			spec, err := workload.LoadSpec(file)
			if err != nil {
				return err
			}
			svc, err := spec.BuildService()
			if err != nil {
				return err
			}
			if _, err := spec.LoadPattern(sim.SubSeed(seed, "scenario/"+spec.Name)); err != nil {
				return err
			}
			if _, err := spec.BETypes(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "ok: %s — scenario %q: service %s (%d components), %d client classes, %.0fs run\n",
				file, spec.Name, svc.Name, len(svc.Components), len(spec.Clients), spec.Run.DurationS)
			return nil
		}()
		if err != nil {
			bad++
			fmt.Fprintf(stdout, "invalid: %s\n", file)
			for _, line := range strings.Split(err.Error(), "\n") {
				fmt.Fprintf(stdout, "  %s\n", line)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "rhythm: %d of %d spec files invalid\n", bad, len(files))
		return 1
	}
	return 0
}

func catalog(stdout io.Writer) error {
	fmt.Fprintln(stdout, "LC workloads (Table 1):")
	for _, svc := range workload.Services() {
		fmt.Fprintf(stdout, "  %-14s %-22s maxload %-9.0f SLA(paper) %-9v containers %d\n",
			svc.Name, svc.Domain, svc.MaxLoadQPS, svc.SLATable1, svc.Containers)
		for _, c := range svc.Components {
			fmt.Fprintf(stdout, "      servpod %-16s cores %-3d llc %-3d mem %3.0fGB\n",
				c.Name, c.Cores, c.LLCWays, c.MemoryGB)
		}
	}
	fmt.Fprintln(stdout, "BE jobs (Table 1):")
	for _, ty := range bejobs.Types() {
		s := bejobs.MustLookup(ty)
		fmt.Fprintf(stdout, "  %-14s %-34s %s-intensive\n", s.Type, s.Domain, s.Intensive)
	}
	return nil
}
