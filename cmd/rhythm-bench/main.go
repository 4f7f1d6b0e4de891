// Command rhythm-bench runs the measurement hot-path micro benchmarks
// (internal/benchmarks) through testing.Benchmark and writes the results as
// JSON — the BENCH_engine.json trajectory file `make bench` maintains.
//
// Output format (one object; "benchmarks" in benchmarks.Rows order):
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
// ns_per_op is wall time and varies with the host; allocs_per_op is
// deterministic for a given build, and bytes_per_op nearly so (FleetTick's
// moves by a few bytes between runs). Benchmarks that call
// b.ReportMetric also carry an "extras" object (FleetTick reports
// "machines/s", the fleet-scale throughput gate).
//
// Diff mode:
//
//	rhythm-bench -compare old.json new.json [old.json new.json ...]
//
// prints a per-benchmark table of ns/op, allocs/op and B/op deltas (signed,
// with percentages) between two report files, then gates. Comparison is
// by benchmark name, so reordered or partially overlapping reports still
// line up; benchmarks present in only one file are listed as
// added/removed. Given several old/new pairs (runs of two binaries in
// alternating rounds, as `make bench-gate` takes them), the table shows
// the medians of each side and the ns/op percentage is the median of the
// pairs' new/old ratios, which a host whose speed drifts between rounds
// moves far less than a comparison against a stored baseline. The gate
// column marks the two rows the comparison blocks on, EngineTick and
// FleetTick, as "gated" and every other row as "info". After printing the
// table it exits non-zero when a gated row's median new/old ns/op ratio
// is more than 25% above 1, or its median new allocs/op exceeds the old
// one. B/op moves by a few bytes between runs of one binary and is not
// gated; the info rows attribute a regression at any drift.
//
// The benchmarks run under the process's GOMAXPROCS (the GOMAXPROCS
// environment variable caps it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"text/tabwriter"

	"rhythm/internal/benchmarks"
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

// gated are the benchmarks -compare blocks on: the two acceptance-gate rows
// every PR pins (the engine hot tick and the fleet epoch). The remaining
// rows — sub-passes, trackers, obs — are attribution aids and stay
// informational, so a noisy CI host can't fail a build over a benchmark
// nobody gates on.
var gated = map[string]bool{"EngineTick": true, "FleetTick": true}

// gateTolerance is the fractional ns/op regression -compare tolerates on a
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
	compare := fs.Bool("compare", false, "compare report files in old/new pairs and fail when a gated benchmark (EngineTick, FleetTick) regressed: rhythm-bench -compare old.json new.json [old.json new.json ...]")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() == 0 || fs.NArg()%2 != 0 {
			fmt.Fprintln(stderr, "usage: rhythm-bench -compare old.json new.json [old.json new.json ...]")
			return 2
		}
		if err := compareReports(fs.Args(), stdout); err != nil {
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
	for _, entry := range benchmarks.Rows {
		r := testing.Benchmark(entry.Fn)
		res := result{
			Name:        entry.Name,
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
			entry.Name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
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

// median returns the middle of xs (the mean of the two middle values for
// an even count); it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// compareReports prints the per-benchmark drift between report files taken
// in old/new pairs. It matches benchmarks by name so partially overlapping
// registries still line up, and lists the first pair's additions and
// removals explicitly; a row counts in the pairs that hold it on both
// sides. After printing the full table it returns an error when any gated
// benchmark's median new/old ns/op ratio exceeds 1+gateTolerance or its
// median new allocs/op exceeds the old.
func compareReports(paths []string, w io.Writer) error {
	rows := make([][]result, len(paths)) // each file's rows, in its order
	reps := make([]map[string]result, len(paths))
	for i, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		rows[i] = rep.Benchmarks
		reps[i] = make(map[string]result, len(rep.Benchmarks))
		for _, r := range rep.Benchmarks {
			reps[i][r.Name] = r
		}
	}
	role := func(name string) string {
		if gated[name] {
			return "gated"
		}
		return "info"
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tgate\told ns/op\tnew ns/op\tΔ ns/op\tΔ allocs/op\tΔ B/op\n")
	var violations []string
	for _, n := range rows[1] {
		var olds, news, ratios, oldAllocs, newAllocs, oldBytes, newBytes []float64
		for p := 0; p < len(reps); p += 2 {
			o, okO := reps[p][n.Name]
			m, okN := reps[p+1][n.Name]
			if !okO || !okN {
				continue
			}
			olds, news = append(olds, o.NsPerOp), append(news, m.NsPerOp)
			if o.NsPerOp > 0 {
				ratios = append(ratios, m.NsPerOp/o.NsPerOp)
			}
			oldAllocs, newAllocs = append(oldAllocs, float64(o.AllocsPerOp)), append(newAllocs, float64(m.AllocsPerOp))
			oldBytes, newBytes = append(oldBytes, float64(o.BytesPerOp)), append(newBytes, float64(m.BytesPerOp))
		}
		if len(olds) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t-\t%.1f\t(added)\t%d\t%d\n",
				n.Name, role(n.Name), n.NsPerOp, n.AllocsPerOp, n.BytesPerOp)
			continue
		}
		oldNs, newNs := median(olds), median(news)
		oldA, newA := median(oldAllocs), median(newAllocs)
		ns := delta(oldNs, newNs, ".1f")
		if oldNs != newNs && len(ratios) > 0 {
			ns = fmt.Sprintf("%+.1f (%+.1f%%)", newNs-oldNs, 100*(median(ratios)-1))
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%s\t%s\t%s\n", n.Name, role(n.Name), oldNs, newNs, ns,
			delta(oldA, newA, ".0f"), delta(median(oldBytes), median(newBytes), ".0f"))
		if !gated[n.Name] {
			continue
		}
		if len(ratios) > 0 {
			if r := median(ratios); r > 1+gateTolerance {
				violations = append(violations, fmt.Sprintf("%s regressed %.1f -> %.1f ns/op (median new/old ratio %.3f over %d pairs, gate %.0f%%)",
					n.Name, oldNs, newNs, r, len(ratios), 100*gateTolerance))
			}
		}
		if newA > oldA {
			violations = append(violations, fmt.Sprintf("%s allocates more: %.0f -> %.0f allocs/op (medians over %d pairs)",
				n.Name, oldA, newA, len(oldAllocs)))
		}
	}
	for _, o := range rows[0] {
		if _, ok := reps[1][o.Name]; !ok {
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t-\t(removed)\t\t\n", o.Name, role(o.Name), o.NsPerOp)
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
