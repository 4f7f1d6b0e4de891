package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestArgValidation is the table test for CLI flag/argument validation:
// usage errors must exit 2 with a clear diagnostic before any experiment
// work starts, and the cheap informational commands must succeed. No case
// here runs an actual experiment, so the table stays fast. Every case runs
// in an empty directory that must stay empty: a usage error leaves no
// trace or metrics file behind.
func TestArgValidation(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Input files live outside dir, which must stay empty.
	inputs := t.TempDir()
	schedule := filepath.Join(inputs, "schedule.json")
	lateSchedule := filepath.Join(inputs, "late-schedule.json")
	badSpec := filepath.Join(inputs, "bad-spec.json")
	for path, body := range map[string]string{
		schedule:     `{"name":"custom","events":[{"kind":"load-surge","at_s":1,"dur_s":2,"magnitude":1.5}]}`,
		lateSchedule: `{"events":[{"kind":"load-surge","at_s":1e10,"dur_s":2,"magnitude":1.5}]}`,
		badSpec:      `{"version": 7}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	cases := []struct {
		name     string
		argv     []string
		wantCode int
		wantErr  string // substring expected on stderr ("" = none checked)
	}{
		{"no args", []string{}, 2, "usage:"},
		{"unknown command", []string{"frobnicate"}, 2, `unknown command "frobnicate"`},
		{"unknown flag", []string{"-no-such-flag", "list"}, 2, ""},
		{"jobs zero", []string{"-jobs", "0", "list"}, 2, "-jobs must be at least 1, got 0"},
		{"jobs negative", []string{"-jobs", "-3", "list"}, 2, "-jobs must be at least 1, got -3"},
		{"jobs non-numeric", []string{"-jobs", "many", "list"}, 2, ""},
		{"run without ids", []string{"run"}, 2, "run needs experiment ids"},
		{"run unknown id", []string{"run", "fig999"}, 2, "fig999"},
		{"run unknown id hint", []string{"run", "no-such-figure"}, 2, "rhythm list"},
		{"run mixed known and unknown", []string{"run", "fig2", "bogus"}, 2, "bogus"},
		{"bad trace format", []string{"-trace-format", "xml", "list"}, 2,
			"-trace-format must be jsonl or chrome"},
		{"jobs error precedes trace format error", []string{"-jobs", "-3", "-trace-format", "xml", "list"}, 2,
			"-jobs must be at least 1, got -3"},
		{"bad faults preset", []string{"-faults", "no-such-storm", "list"}, 2, "-faults:"},
		{"trace without id", []string{"trace"}, 2, "trace needs exactly one experiment id"},
		{"trace two ids", []string{"trace", "fig2", "fig3"}, 2,
			"trace needs exactly one experiment id"},
		{"trace unknown id", []string{"trace", "fig999"}, 2, "fig999"},
		{"trace scenario without spec", []string{"trace", "scenario"}, 2, "needs -scenario"},
		{"unknown policy", []string{"-policy", "bogus", "run", "fig7"}, 2, "registered:"},
		{"calibrate without artifact", []string{"calibrate"}, 2,
			"calibrate needs -observed"},
		{"calibrate two artifacts", []string{"calibrate", "a.prom", "b.prom"}, 2,
			"one observed artifact"},
		{"calibrate with metrics-out", []string{"-metrics-out", "m.prom", "calibrate", "a.prom"}, 2,
			"cannot be combined"},
		{"calibrate with trace-out", []string{"-trace-out", "t.jsonl", "calibrate", "a.prom"}, 2,
			"cannot be combined"},
		{"calibrate missing file", []string{"calibrate", "no-such-artifact.prom"}, 1, ""},
		{"list ok", []string{"list"}, 0, ""},
		{"catalog ok", []string{"catalog"}, 0, ""},
		{"profile missing arg", []string{"profile"}, 1, "profile needs exactly one service name"},
		{"unknown fleet preset", []string{"-fleet", "bogus", "list"}, 2, "-fleet:"},
		{"faults schedule file ok", []string{"-faults", schedule, "list"}, 0, ""},
		// The path once, and "faults:" once, before the field.
		{"bad faults schedule file", []string{"-faults", lateSchedule, "list"}, 2,
			"rhythm: -faults: " + lateSchedule + ": faults: Events[0]"},
		{"bad scenario spec", []string{"-scenario", badSpec, "list"}, 2,
			"-scenario: " + badSpec + ": workload: spec version"},
		// The flag defaults, as -h prints them.
		{"default seed", []string{"-h"}, 2, "RNG seed (default 2020)"},
		{"default jobs", []string{"-h"}, 2,
			"identical for any value) (default " + strconv.Itoa(runtime.NumCPU()) + ")"},
		{"default quick", []string{"-h"}, 2, "reduced experiment scale (default true)"},
		{"default trace format", []string{"-h"}, 2, `(trace_event JSON) (default "jsonl")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := realMain(tc.argv, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("argv %q: exit %d, want %d (stderr: %s)",
					tc.argv, code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("argv %q: stderr %q does not contain %q",
					tc.argv, stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && stdout.Len() == 0 {
				t.Fatalf("argv %q: successful command produced no output", tc.argv)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("argv %q left %s behind", tc.argv, left[0].Name())
			}
		})
	}
}

// TestValidateRunIDsAcceptsRegistry: every registered id and the "all"
// alias must pass validation.
func TestValidateRunIDsAcceptsRegistry(t *testing.T) {
	var stderr bytes.Buffer
	if code := validateRunIDs([]string{"all"}, &stderr); code != 0 {
		t.Fatalf(`"all" rejected: %s`, stderr.String())
	}
	if code := validateRunIDs([]string{"fig2", "fig17", "tab1"}, &stderr); code != 0 {
		t.Fatalf("registered ids rejected: %s", stderr.String())
	}
	// Scenario experiments are runnable by id even though `run all`
	// excludes them (the golden stdout must not change).
	if code := validateRunIDs([]string{"resilience"}, &stderr); code != 0 {
		t.Fatalf("resilience rejected: %s", stderr.String())
	}
}

// TestListIncludesScenarios: `rhythm list` advertises the on-demand
// scenarios after the paper experiments, so resilience is discoverable.
func TestListIncludesScenarios(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list failed: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "resilience") {
		t.Fatalf("list does not mention resilience:\n%s", stdout.String())
	}
}

// TestScenarioSubcommand covers the scenario subcommand's usage surface:
// validation mode over good and bad files, missing-file usage errors,
// and the `run scenario` guard when no spec is loaded. No case runs a
// real experiment.
func TestScenarioSubcommand(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	goodBody := `{"version": 1, "name": "cli-test",
	  "service": {"catalog": "Redis"},
	  "run": {"baseline_load": 0.5, "duration_s": 20},
	  "clients": [{"class": "all", "rate_fraction": 1, "arrival": {"process": "constant"}}]}`
	if err := os.WriteFile(good, []byte(goodBody), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 7, "name": ""}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		argv     []string
		wantCode int
		wantOut  string // substring expected on stdout
		wantErr  string // substring expected on stderr
	}{
		{"no file", []string{"scenario"}, 2, "", "needs exactly one spec file"},
		{"two files", []string{"scenario", good, good}, 2, "", "needs exactly one spec file"},
		{"validate no files", []string{"scenario", "-validate"}, 2, "", "at least one spec file"},
		{"validate good", []string{"scenario", "-validate", good}, 0, "ok: " + good, ""},
		{"validate bad", []string{"scenario", "-validate", bad}, 1, "invalid: " + bad, "1 of 1 spec files invalid"},
		{"validate mixed", []string{"scenario", "-validate", good, bad}, 1, "ok: " + good, "1 of 2 spec files invalid"},
		{"validate missing file", []string{"scenario", "-validate", filepath.Join(dir, "nope.json")}, 1, "invalid:", ""},
		{"validate shipped specs", append([]string{"scenario", "-validate"}, shippedSpecs(t)...), 0, "ok: ", ""},
		{"run scenario without spec", []string{"run", "scenario"}, 2, "", "needs -scenario"},
		{"bad -scenario flag", []string{"-scenario", bad, "list"}, 2, "", "-scenario:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := realMain(tc.argv, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("argv %q: exit %d, want %d (stderr: %s)",
					tc.argv, code, tc.wantCode, stderr.String())
			}
			if tc.wantOut != "" && !strings.Contains(stdout.String(), tc.wantOut) {
				t.Fatalf("argv %q: stdout %q does not contain %q",
					tc.argv, stdout.String(), tc.wantOut)
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("argv %q: stderr %q does not contain %q",
					tc.argv, stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestListIncludesScenarioExperiment: the scenario experiment family is
// discoverable from `rhythm list` alongside resilience.
func TestListIncludesScenarioExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list failed: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "scenario") {
		t.Fatalf("list does not mention the scenario experiment:\n%s", stdout.String())
	}
}

// TestCalibrateSelfFixedPoint is the CLI-level fixed-point contract: a
// run's exported metrics snapshot, and a run's JSONL decision trace, fed
// back through `rhythm calibrate` must validate with zero breaches — the
// snapshot even when the re-run uses a different worker count.
func TestCalibrateSelfFixedPoint(t *testing.T) {
	dir := t.TempDir()
	mpath := filepath.Join(dir, "m.prom")
	tpath := filepath.Join(dir, "t.jsonl")

	// Separate processes would start the export and the re-run equally
	// cold; in one process, warm the profile cache first so both sides
	// see it warm and record the same pool dispatches.
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-quick", "-seed", "2020", "run", "fig2", "fig7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("warm-up run failed (%d): %s", code, stderr.String())
	}
	for _, arm := range []struct {
		export, calibrate []string
		reran             string
	}{
		{[]string{"-metrics-out", mpath, "run", "fig2", "fig7"}, []string{"-jobs", "4", "calibrate", "-observed", mpath}, "re-ran fig2, fig7 "},
		{[]string{"-trace-out", tpath, "run", "fig7"}, []string{"calibrate", "-observed", tpath}, "re-ran fig7 "},
	} {
		stderr.Reset()
		if code := realMain(append([]string{"-quick", "-seed", "2020"}, arm.export...), &stdout, &stderr); code != 0 {
			t.Fatalf("export %q failed (%d): %s", arm.export, code, stderr.String())
		}
		stdout.Reset()
		stderr.Reset()
		code := realMain(append([]string{"-quick", "-seed", "2020"}, arm.calibrate...), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%q: self-calibration exit %d\nstdout:\n%s\nstderr:\n%s",
				arm.calibrate, code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), "calibration: PASS") {
			t.Fatalf("%q: missing PASS verdict:\n%s", arm.calibrate, stdout.String())
		}
		if !strings.Contains(stderr.String(), arm.reran) {
			t.Fatalf("%q: summary line missing:\n%s", arm.calibrate, stderr.String())
		}
	}

	// A -report sidecar must be valid JSON with the same verdict, and the
	// -fit pass must converge at the fixed point (identity transform).
	rpath := filepath.Join(dir, "report.json")
	stdout.Reset()
	stderr.Reset()
	if code := realMain([]string{"-quick", "-seed", "2020", "calibrate", "-fit", "-report", rpath, mpath},
		&stdout, &stderr); code != 0 {
		t.Fatalf("calibrate -fit exit %d: %s", code, stderr.String())
	}
	body, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"pass": true`) {
		t.Fatalf("report sidecar lacks pass verdict:\n%s", body)
	}
}

// TestCalibrateRejectsForeignArtifacts: artifacts that carry no
// rhythm experiment ids, or ids this binary cannot re-run, exit 1 with a
// pointed diagnostic rather than silently passing an empty comparison.
func TestCalibrateRejectsForeignArtifacts(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.prom")
	if err := os.WriteFile(empty, []byte("# TYPE foreign_total counter\nforeign_total 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unknown := filepath.Join(dir, "unknown.prom")
	if err := os.WriteFile(unknown,
		[]byte("# TYPE rhythm_experiments_total counter\nrhythm_experiments_total{id=\"fig999\"} 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"calibrate", empty}, &stdout, &stderr); code != 1 {
		t.Fatalf("empty artifact exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no rhythm_experiments_total series") {
		t.Fatalf("missing re-export hint:\n%s", stderr.String())
	}

	stderr.Reset()
	if code := realMain([]string{"calibrate", unknown}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown id exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fig999") {
		t.Fatalf("diagnostic does not name the unknown id:\n%s", stderr.String())
	}
}

// TestCPUProfileLeavesStdoutAlone: -cpuprofile writes a CPU profile to its
// file and changes nothing on stdout.
func TestCPUProfileLeavesStdoutAlone(t *testing.T) {
	argv := []string{"-jobs", "2", "run", "fig2"}
	var plain, stderr bytes.Buffer
	if code := realMain(argv, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	var profiled bytes.Buffer
	stderr.Reset()
	if code := realMain(append([]string{"-cpuprofile", prof}, argv...), &profiled, &stderr); code != 0 {
		t.Fatalf("-cpuprofile: exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("-cpuprofile changed stdout:\n%s\nvs\n%s", profiled.String(), plain.String())
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("no profile written to %s (%v)", prof, err)
	}

	stderr.Reset()
	bad := filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")
	if code := realMain(append([]string{"-cpuprofile", bad}, argv...), &profiled, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "-cpuprofile") {
		t.Fatalf("unwritable -cpuprofile: exit %d, stderr %q; want 2 naming the flag", code, stderr.String())
	}
}
