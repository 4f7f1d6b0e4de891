// Command rhythm-bench runs the measurement hot-path micro benchmarks
// (internal/benchmarks) through testing.Benchmark and writes the results as
// JSON — the BENCH_engine.json trajectory file `make bench` maintains.
//
// Output format (one object; "benchmarks" in fixed registry order):
//
//	{
//	  "schema": "rhythm-bench/v1",
//	  "goos": "linux", "goarch": "amd64", "cpus": 8,
//	  "benchmarks": [
//	    {"name": "EngineTick", "iters": 1234, "ns_per_op": 98765.4,
//	     "allocs_per_op": 3, "bytes_per_op": 512},
//	    ...
//	  ]
//	}
//
// ns_per_op is wall time and varies with the host; allocs_per_op and
// bytes_per_op are deterministic for a given build and are what the
// acceptance gates compare across PRs. Benchmarks that call
// b.ReportMetric also carry an "extras" object (FleetTick reports
// "machines/s", the fleet-scale throughput gate).
//
// Diff mode:
//
//	rhythm-bench -compare old.json new.json
//
// prints a per-benchmark table of ns/op, allocs/op and B/op deltas (signed,
// with percentages) between two report files — `make bench-compare` wires
// it to a saved baseline. Comparison is by benchmark name, so reordered or
// partially overlapping reports still line up; benchmarks present in only
// one file are listed as added/removed. Plain -compare only reads and
// reports; adding -gate makes it exit non-zero when a gated row
// (EngineTick, FleetTick) regresses more than 25% ns/op — the blocking
// drift check `make bench-gate` and CI's quick-bench job run. The other
// rows stay informational at any drift.
//
// -jobs caps GOMAXPROCS for the benchmarked operations, sharing the
// fleet-wide default and validation path (internal/cliflags) with the
// other rhythm binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"text/tabwriter"

	"rhythm/internal/benchmarks"
	"rhythm/internal/cliflags"
)

type result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extras carries custom b.ReportMetric values (FleetTick's
	// machines/s throughput); omitted for benchmarks that report none.
	Extras map[string]float64 `json:"extras,omitempty"`
}

type report struct {
	Schema     string   `json:"schema"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Benchmarks []result `json:"benchmarks"`
}

// registry fixes the benchmark order so successive BENCH_engine.json files
// diff cleanly.
var registry = []struct {
	name string
	fn   func(*testing.B)
}{
	{"TailTrackerAdd", benchmarks.TailTrackerAdd},
	{"TailTrackerAddP99", benchmarks.TailTrackerAddP99},
	{"TailTrackerWindowP99", benchmarks.TailTrackerWindowP99},
	{"EngineTick", benchmarks.EngineTick},
	{"EngineTickDemand", benchmarks.EngineTickDemand},
	{"EngineTickInflation", benchmarks.EngineTickInflation},
	{"EngineTickSojourn", benchmarks.EngineTickSojourn},
	{"EngineTickSample", benchmarks.EngineTickSample},
	{"EngineTickColo", benchmarks.EngineTickColo},
	{"EngineTickColoInflation", benchmarks.EngineTickColoInflation},
	{"EngineTickColoSojourn", benchmarks.EngineTickColoSojourn},
	{"EngineTickColoSample", benchmarks.EngineTickColoSample},
	{"EngineControlPeriodColo", benchmarks.EngineControlPeriodColo},
	{"EngineControlPeriodRamp", benchmarks.EngineControlPeriodRamp},
	{"StationAtLanes8", benchmarks.StationAtLanes(8)},
	{"StationAtLanes64", benchmarks.StationAtLanes(64)},
	{"StationAtLanes172", benchmarks.StationAtLanes(172)},
	{"FleetTick", benchmarks.FleetTick},
	{"SampleKernel", benchmarks.SampleKernel},
	{"SampleFilter", benchmarks.SampleFilter},
	{"UniformKernel", benchmarks.UniformKernel},
	{"FindSlacklimits", benchmarks.FindSlacklimits},
	{"ObsDisabled", benchmarks.ObsDisabled},
}

// gated are the benchmarks -gate blocks on: the two acceptance-gate rows
// every PR pins (the engine hot tick and the fleet epoch). The remaining
// rows — sub-passes, trackers, obs — are attribution aids and stay
// informational, so a noisy CI host can't fail a build over a benchmark
// nobody gates on.
var gated = map[string]bool{"EngineTick": true, "FleetTick": true}

// gateTolerance is the fractional ns/op regression -gate tolerates on a
// gated row before failing (wall time on shared CI runners is noisy; 25%
// is far outside the observed jitter but well inside a real regression
// from an accidental hot-path allocation).
const gateTolerance = 0.25

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable argv and streams so flag handling is
// table-testable: usage errors exit 2, runtime failures exit 1.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rhythm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_engine.json", "output file (- for stdout)")
	compare := fs.Bool("compare", false, "compare two report files: rhythm-bench -compare old.json new.json")
	gate := fs.Bool("gate", false, "with -compare: fail when a gated benchmark (EngineTick, FleetTick) regresses more than 25% ns/op")
	var common cliflags.Common
	common.RegisterJobs(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if err := common.Validate(); err != nil {
		fmt.Fprintf(stderr, "rhythm-bench: %v\n", err)
		return 2
	}
	// Benchmarks time single operations; -jobs caps the P they run under
	// (GOMAXPROCS) so a shared CI host can pin the parallelism.
	runtime.GOMAXPROCS(common.Jobs)

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: rhythm-bench -compare old.json new.json")
			return 2
		}
		if err := compareReports(fs.Arg(0), fs.Arg(1), *gate, stdout); err != nil {
			fmt.Fprintln(stderr, "rhythm-bench:", err)
			return 1
		}
		return 0
	}

	rep := report{
		Schema: "rhythm-bench/v1",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	for _, entry := range registry {
		r := testing.Benchmark(entry.fn)
		res := result{
			Name:        entry.name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extras = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extras[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(stderr, "%-24s %10d iters  %12.1f ns/op  %6d allocs/op  %8d B/op\n",
			entry.name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
			r.AllocsPerOp(), r.AllocedBytesPerOp())
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "rhythm-bench:", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "-" {
		if _, err := stdout.Write(enc); err != nil {
			fmt.Fprintln(stderr, "rhythm-bench:", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(stderr, "rhythm-bench:", err)
		return 1
	}
	return 0
}

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != "rhythm-bench/v1" {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, rep.Schema)
	}
	return &rep, nil
}

// delta formats a signed absolute change with its percentage, or "=" when
// nothing moved; the percent is omitted when the old value is zero.
func delta(old, new float64, format string) string {
	if old == new {
		return "="
	}
	d := new - old
	if old == 0 {
		return fmt.Sprintf("%+"+format, d)
	}
	return fmt.Sprintf("%+"+format+" (%+.1f%%)", d, 100*d/old)
}

// compareReports prints the per-benchmark drift between two report files.
// It matches benchmarks by name so partially overlapping registries still
// line up, and lists additions/removals explicitly. With gate set it
// returns an error — after printing the full table — when any gated
// benchmark's ns/op regressed beyond gateTolerance.
func compareReports(oldPath, newPath string, gate bool, w io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]result, len(oldRep.Benchmarks))
	for _, r := range oldRep.Benchmarks {
		oldBy[r.Name] = r
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\told ns/op\tnew ns/op\tΔ ns/op\tΔ allocs/op\tΔ B/op\n")
	seen := make(map[string]bool, len(newRep.Benchmarks))
	var violations []string
	for _, n := range newRep.Benchmarks {
		seen[n.Name] = true
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t%.1f\t(added)\t%d\t%d\n",
				n.Name, n.NsPerOp, n.AllocsPerOp, n.BytesPerOp)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%s\t%s\t%s\n",
			n.Name, o.NsPerOp, n.NsPerOp,
			delta(o.NsPerOp, n.NsPerOp, ".1f"),
			delta(float64(o.AllocsPerOp), float64(n.AllocsPerOp), ".0f"),
			delta(float64(o.BytesPerOp), float64(n.BytesPerOp), ".0f"))
		if gate && gated[n.Name] && o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+gateTolerance) {
			violations = append(violations, fmt.Sprintf("%s regressed %.1f -> %.1f ns/op (%+.1f%%, gate %.0f%%)",
				n.Name, o.NsPerOp, n.NsPerOp, 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp, 100*gateTolerance))
		}
	}
	for _, o := range oldRep.Benchmarks {
		if !seen[o.Name] {
			fmt.Fprintf(tw, "%s\t%.1f\t-\t(removed)\t\t\n", o.Name, o.NsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("gate: %s", strings.Join(violations, "; "))
	}
	return nil
}
