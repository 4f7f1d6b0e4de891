package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rhythm/internal/controller"
	"rhythm/internal/experiments"
	"rhythm/internal/sim"
)

// reduced reports whether the harness runs in its cheap form. -race slows
// the simulation ~5-10x, so under -race (or -short) the paper row runs
// determinismIDs and the heavy on-demand rows skip.
func reduced() bool { return sim.RaceEnabled || testing.Short() }

// determinismIDs is what the paper row runs: the whole registry, or in
// reduced form the cheap experiments that still cover every concurrency
// mechanism — scratch-RNG experiments (fig2, fig7, ablations),
// deployment-backed figures (fig6, fig8, tab1) and the controller
// timeline (fig17). The grid prefetch and threshold sweep run only in
// the full form.
func determinismIDs() []string {
	if reduced() {
		return []string{
			"fig2", "fig6", "fig7", "fig8", "tab1", "fig17",
			"ablation-pairing", "ablation-period",
		}
	}
	return []string{"all"}
}

// harnessRow is one TestDeterminismHarness case.
type harnessRow struct {
	name      string
	id        string   // the on-demand experiment the row pins ("" for the paper row)
	args      []string // argv after the -quick -seed -jobs prefix
	heavy     bool     // skipped in reduced form
	want      []string // substrings stdout must contain
	decisions bool     // the traced run must record controller decisions
}

func harnessRows(t *testing.T) []harnessRow {
	t.Helper()
	rows := []harnessRow{
		{name: "all", args: append([]string{"run"}, determinismIDs()...), decisions: true},
		{name: "calibration", id: "calibration", args: []string{"run", "calibration"},
			want: []string{"PASS"}},
		{name: "fleet", id: "fleet", args: []string{"run", "fleet"}, heavy: true, decisions: true},
		{name: "resilience", id: "resilience", args: []string{"run", "resilience"}, heavy: true,
			want: []string{"chaos", "Heracles"}, decisions: true},
		// Every registered policy must appear in the scorecard: the zoo
		// grows by registration alone, never by editing the tournament.
		{name: "tournament", id: "tournament", args: []string{"run", "tournament"}, heavy: true,
			want: append(controller.Names(), "steady-65", "diurnal", "storm"), decisions: true},
	}
	for _, spec := range shippedSpecs(t) {
		rows = append(rows, harnessRow{name: "scenario/" + filepath.Base(spec), id: "scenario",
			args: []string{"-scenario", spec, "run", "scenario"}, heavy: true,
			want: []string{"class ", "Rhythm", "Heracles"}, decisions: true})
	}
	return append(rows, harnessRow{name: "scenario/flash-crowd.json/policy-predictive", id: "scenario",
		args:  []string{"-policy", "predictive", "-scenario", "../../examples/scenarios/flash-crowd.json", "run", "scenario"},
		heavy: true, want: []string{"Predictive"}, decisions: true})
}

// shippedSpecs lists every workload-spec file under examples/scenarios.
func shippedSpecs(t *testing.T) []string {
	t.Helper()
	var specs []string
	for _, pattern := range []string{"*.json", "*.yaml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", pattern))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, m...)
	}
	if len(specs) == 0 {
		t.Fatal("no shipped scenario specs found")
	}
	return specs
}

// TestDeterminismHarness is the determinism contract of the experiment
// registry in one table. Each row runs through realMain three times in
// one process — jobs=1 first (so the first row starts on a cold profile
// cache), jobs=4, and jobs=4 with -trace-out/-metrics-out — and the three
// stdouts must be byte-identical: the worker count never shows in the
// bytes, tracing never perturbs them, and no state leaks from one run
// into the next. The "all" row covers every paper experiment; every
// on-demand experiment must have a row of its own.
func TestDeterminismHarness(t *testing.T) {
	rows := harnessRows(t)
	var pinned []string
	for _, row := range rows {
		if row.id != "" && !slices.Contains(pinned, row.id) {
			pinned = append(pinned, row.id)
		}
	}
	slices.Sort(pinned)
	if have := experiments.ScenarioIDs(); !slices.Equal(pinned, have) {
		t.Fatalf("harness rows pin on-demand experiments %v; the registry has %v", pinned, have)
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.heavy && reduced() {
				t.Skip("too heavy for -race/-short")
			}
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace.jsonl")
			metricsPath := filepath.Join(dir, "metrics.prom")
			var serial string
			for i, flags := range [][]string{
				{"-jobs", "1"},
				{"-jobs", "4"},
				{"-jobs", "4", "-trace-out", tracePath, "-metrics-out", metricsPath},
			} {
				argv := append(append([]string{"-quick", "-seed", "2020"}, flags...), row.args...)
				var stdout, stderr bytes.Buffer
				if code := realMain(argv, &stdout, &stderr); code != 0 {
					t.Fatalf("%q: exit %d\n%s", argv, code, stderr.String())
				}
				if i == 0 {
					serial = stdout.String()
				} else if diff := firstDiff(serial, stdout.String()); diff != "" {
					t.Fatalf("%q: stdout differs from the jobs=1 run: %s", argv, diff)
				}
			}
			for _, want := range row.want {
				if !strings.Contains(serial, want) {
					t.Errorf("stdout missing %q:\n%s", want, serial)
				}
			}
			if row.decisions {
				requireDecisions(t, tracePath, metricsPath)
			}
		})
	}
}

// firstDiff describes the first line where got departs from want, or
// returns "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			line := func(ls []string) string {
				if i < len(ls) {
					return ls[i]
				}
				return "<EOF>"
			}
			return fmt.Sprintf("line %d\nwant: %s\ngot:  %s", i+1, line(w), line(g))
		}
	}
}

var decisionCounter = regexp.MustCompile(`(?m)^rhythm_decisions_total`)

// requireDecisions streams the JSONL trace and demands controller
// decision events, every one carrying its slack, and the decision
// counter in the metrics snapshot.
func requireDecisions(t *testing.T, tracePath, metricsPath string) {
	t.Helper()
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decisions := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"kind":"decision"`)) {
			continue
		}
		decisions++
		if !bytes.Contains(sc.Bytes(), []byte(`"slack":`)) {
			t.Fatalf("decision event without a slack field: %s", sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if decisions == 0 {
		t.Fatal("trace recorded no decision events")
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !decisionCounter.Match(metrics) {
		t.Fatalf("metrics snapshot lacks rhythm_decisions_total:\n%s", metrics)
	}
}
