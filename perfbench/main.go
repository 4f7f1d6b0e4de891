// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation and prints, as the last line of its standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 360, "failed": 0,
//	 "metrics": {"wall_s": {"value": 5.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a traced pass. Run it
// through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload offline --seed 2020 --seconds 24 --trace 0
//
// Every timed pass runs in a child process of this one (-child), so a
// pass that must find the process-wide caches cold gets a fresh process.
// BENCHMARK.md next to this file describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rhythm/internal/obs"
)

// setups is how many times each child process sets its workload up;
// setup_s is the median. The first set-ups in a fresh process run up to
// twice as long as the later ones, and one set-up takes only a few
// tenths of a second, so a median of nine stays clear of both.
const setups = 9

// deadline bounds one invocation, child processes included.
const deadline = 170 * time.Second

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: offline, colocate, fleet100 or paper-quick")
	seed := fs.Uint64("seed", fixtureSeed, "input seed")
	seconds := fs.Float64("seconds", 24, "nominal measured seconds per run")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	out := fs.String("out", ".bench_build", "directory for span dumps")
	child := fs.Bool("child", false, "run timed passes in this process and report them as JSON")
	passes := fs.Int("passes", 1, "timed passes (child only)")
	genFixture := fs.String("gen-fixture", "", "deploy every service at the fixture seed and write the fixture to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *genFixture != "" {
		if err := writeFixture(*genFixture); err != nil {
			fatal(err)
		}
		return
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload offline|colocate|fleet100|paper-quick --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *child {
		res, err := runChild(w, *seed, *passes, *traced == 1, *out)
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(res)
		return
	}
	res, err := orchestrate(w, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fatal(err)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// ---------------------------------------------------------------------------
// Child: set up, run timed passes, report.

type passRecord struct {
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	OpMs      []float64 `json:"op_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Digest    string    `json:"digest"`
}

type childResult struct {
	SetupS []float64          `json:"setup_s"`
	Passes []passRecord       `json:"passes"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func runChild(w *workloadDef, seed uint64, passes int, traced bool, outDir string) (*childResult, error) {
	res := &childResult{}
	var b *bench
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		fx, err := loadFixture()
		if err != nil {
			return nil, err
		}
		if b, err = w.setup(seed, fx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		obs.Install(tr.bus)
	}
	for p := 0; p < passes; p++ {
		ru0, t0 := rusage(), time.Now()
		po, err := b.pass(tr)
		wall, ru1 := time.Since(t0).Seconds(), rusage()
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", w.name, err)
		}
		res.Passes = append(res.Passes, passRecord{
			WallS: wall, CPUS: cpuSeconds(ru1) - cpuSeconds(ru0),
			OpMs: po.opMs, Attempted: po.attempted, Failed: po.failed,
			Problems: po.problems, Digest: po.digest,
		})
	}
	if traced {
		obs.Uninstall()
		if b.replay != nil {
			ro, last := b.replay(tr), &res.Passes[len(res.Passes)-1]
			last.Attempted += ro.attempted
			last.Failed += ro.failed
			last.Problems = append(last.Problems, ro.problems...)
		}
		setBenchTime(300 * time.Millisecond)
		res.Layers = layerMetrics(tr, res.Passes[0].WallS)
		if tr.expCriticalID != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: critical experiment %s (%.1f s)\n", w.name, tr.expCriticalID, tr.expCritical.Seconds())
		}
		if err := tr.write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Orchestrator: spawn children, check outputs, aggregate metrics.

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func spawn(ctx context.Context, w *workloadDef, seed uint64, passes int, traced bool, outDir string) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-passes", strconv.Itoa(passes),
		"-trace", tr, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	var res childResult
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s child output: %w", w.name, err)
	}
	return &res, nil
}

func orchestrate(w *workloadDef, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	passes := int(math.Max(1, math.Round(seconds/w.passSeconds)))
	if traced {
		passes = 1
	}
	// Untraced children: one per pass when the pass needs cold caches,
	// else one child running every pass.
	var children []*childResult
	for n := 0; n < passes; {
		k := passes - n
		if w.freshProcess {
			k = 1
		}
		c, err := spawn(ctx, w, seed, k, false, outDir)
		if err != nil {
			return nil, err
		}
		children = append(children, c)
		n += k
	}
	var tracedChild *childResult
	if traced {
		c, err := spawn(ctx, w, seed, 1, true, outDir)
		if err != nil {
			return nil, err
		}
		tracedChild = c
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var all []passRecord
	var setupS []float64
	for _, c := range children {
		all = append(all, c.Passes...)
		setupS = append(setupS, c.SetupS...)
	}
	checked := all
	if traced {
		checked = append(all[:len(all):len(all)], tracedChild.Passes...)
	}
	pins, err := pinnedDigests()
	if err != nil {
		return nil, err
	}
	for _, p := range checked {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		for _, msg := range p.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, msg)
		}
		if p.Digest != checked[0].Digest {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: outputs differ between passes (%s vs %s)\n", w.name, p.Digest, checked[0].Digest)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s\n", w.name, seed, checked[0].Digest)
	if (seed == fixtureSeed || w.pinned) && pins[w.name] != checked[0].Digest {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: digest %s does not match the pin %q in digests.json\n",
			w.name, checked[0].Digest, pins[w.name])
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if traced {
		for k, v := range tracedChild.Layers {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		res.Metrics["trace_overhead"] = metric{tracedChild.Passes[0].WallS / all[0].WallS, "ratio"}
		return res, nil
	}
	var wall, cpu, p50, p95 []float64
	for _, p := range all {
		wall = append(wall, p.WallS)
		cpu = append(cpu, p.CPUS)
		p50 = append(p50, percentile(p.OpMs, 0.50))
		p95 = append(p95, percentile(p.OpMs, 0.95))
	}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["wall_s"] = metric{median(wall), "s"}
	res.Metrics["cpu_s"] = metric{median(cpu), "s"}
	res.Metrics["op_p50_ms"] = metric{median(p50), "ms"}
	res.Metrics["op_p95_ms"] = metric{median(p95), "ms"}
	return res, nil
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_s", "s"},
		{"_ratio", "ratio"}, {"_share", "ratio"}, {"_eff", "ratio"}, {"_per_dispatch", "items"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
