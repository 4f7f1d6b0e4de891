package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fmtFloat renders a benchmark ns/op value as a JSON number.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "PathP99", "iters": 100, "ns_per_op": 300000, "allocs_per_op": 0, "bytes_per_op": 2},
    {"name": "Gone", "iters": 10, "ns_per_op": 50, "allocs_per_op": 1, "bytes_per_op": 8}
  ]
}`)
	new := writeReport(t, dir, "new.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "PathP99", "iters": 200, "ns_per_op": 150000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "Fresh", "iters": 10, "ns_per_op": 75, "allocs_per_op": 2, "bytes_per_op": 16}
  ]
}`)

	var sb strings.Builder
	if err := compareReports([]string{old, new}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"PathP99", "-150000.0", "(-50.0%)", // ns/op halved, signed with percent
		"-2",        // bytes went 2 -> 0
		"(added)",   // Fresh only in new
		"(removed)", // Gone only in old
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("compare output missing %q:\n%s", want, out)
		}
	}
	// allocs unchanged for PathP99: rendered as bare "=" cell.
	if !strings.Contains(out, "=") {
		t.Fatalf("unchanged metric not rendered as '=':\n%s", out)
	}
	// The gate column follows the name: none of these rows is gated.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if f := strings.Fields(lines[0]); len(f) < 2 || f[1] != "gate" {
		t.Fatalf("header has no gate column after the name:\n%s", out)
	}
	for _, line := range lines[1:] {
		if f := strings.Fields(line); len(f) < 2 || f[1] != "info" {
			t.Fatalf("ungated row not marked info: %q", line)
		}
	}

	// The gated rows are marked gated, added and removed ones included.
	gatedOld := writeReport(t, dir, "gated-old.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": 10000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "FleetTick", "iters": 100, "ns_per_op": 8000000, "allocs_per_op": 9, "bytes_per_op": 512}
  ]
}`)
	gatedNew := writeReport(t, dir, "gated-new.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": 10000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "EngineTickSample", "iters": 100, "ns_per_op": 5000, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`)
	sb.Reset()
	if err := compareReports([]string{gatedOld, gatedNew}, &sb); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"EngineTick": "gated", "FleetTick": "gated", "EngineTickSample": "info"}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 2 || want[f[0]] != f[1] {
			t.Fatalf("row %q: gate column %v, want %q:\n%s", line, f, want[f[0]], sb.String())
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Fatalf("rows missing from the table: %v\n%s", want, sb.String())
	}
}

// TestFlagBehavior pins this binary's flag surface: only -out and
// -compare exist, and -compare usage errors exit 2.
func TestFlagBehavior(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, flag := range []string{"-jobs", "-gate"} {
		stderr.Reset()
		if code := realMain([]string{flag, "-compare"}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2", flag, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Fatalf("%s diagnostic: %s", flag, stderr.String())
		}
	}
	stderr.Reset()
	if code := realMain([]string{"-compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-compare with one arg: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: rhythm-bench -compare") {
		t.Fatalf("compare usage diagnostic: %s", stderr.String())
	}
	stderr.Reset()
	if code := realMain([]string{"-compare", "nope-a.json", "nope-b.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-compare with missing files: exit %d, want 1", code)
	}
}

func TestCompareReportsBadSchema(t *testing.T) {
	dir := t.TempDir()
	bad := writeReport(t, dir, "bad.json", `{"schema": "other/v9"}`)
	good := writeReport(t, dir, "good.json", `{"schema": "rhythm-bench/v1"}`)
	var sb strings.Builder
	if err := compareReports([]string{bad, good}, &sb); err == nil {
		t.Fatal("expected schema error")
	}
}

// TestCompareGate pins the blocking-drift contract: a >25% ns/op
// regression on a gated row (EngineTick, FleetTick) fails after the table
// prints, while any drift on a non-gated row — and regressions within
// tolerance — pass.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": 10000, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "FleetTick", "iters": 100, "ns_per_op": 8000000, "allocs_per_op": 9, "bytes_per_op": 512},
    {"name": "TailTrackerAddP99", "iters": 100, "ns_per_op": 1000, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`)
	cases := []struct {
		name     string
		engineNs float64
		trackNs  float64
		wantFail bool
	}{
		{"regression past tolerance fails", 13000, 1000, true},
		{"regression within tolerance passes", 12000, 1000, false},
		{"non-gated row may drift freely", 10000, 90000, false},
		{"improvement passes", 5000, 1000, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			new := writeReport(t, dir, "new.json", `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": `+fmtFloat(tc.engineNs)+`, "allocs_per_op": 0, "bytes_per_op": 0},
    {"name": "FleetTick", "iters": 100, "ns_per_op": 8000000, "allocs_per_op": 9, "bytes_per_op": 512},
    {"name": "TailTrackerAddP99", "iters": 100, "ns_per_op": `+fmtFloat(tc.trackNs)+`, "allocs_per_op": 0, "bytes_per_op": 0}
  ]
}`)
			var sb strings.Builder
			err := compareReports([]string{old, new}, &sb)
			if tc.wantFail && err == nil {
				t.Fatalf("gate passed a >25%% EngineTick regression:\n%s", sb.String())
			}
			if !tc.wantFail && err != nil {
				t.Fatalf("gate failed unexpectedly: %v\n%s", err, sb.String())
			}
			if tc.wantFail && !strings.Contains(err.Error(), "EngineTick") {
				t.Fatalf("gate error does not name the regressed row: %v", err)
			}
			// The drift table must print even when the gate trips.
			if !strings.Contains(sb.String(), "EngineTick") {
				t.Fatalf("table missing from gated compare:\n%s", sb.String())
			}
		})
	}
}

// TestCompareGatePairs pins the paired gate: given old/new pairs, a gated
// row fails on the median of the pairs' new/old ns/op ratios, so one round
// on a slow phase of the host neither fails a build nor hides a
// regression, and a host whose speed drifts between rounds moves nothing
// that both sides of a pair share. allocs/op is gated exactly, on the
// medians of each side; B/op is not gated.
func TestCompareGatePairs(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, engineNs float64, allocs, bytes int) string {
		return writeReport(t, dir, name, `{
  "schema": "rhythm-bench/v1", "goos": "linux", "goarch": "amd64", "cpus": 1,
  "benchmarks": [
    {"name": "EngineTick", "iters": 100, "ns_per_op": `+fmtFloat(engineNs)+`, "allocs_per_op": `+fmt.Sprint(allocs)+`, "bytes_per_op": `+fmt.Sprint(bytes)+`}
  ]
}`)
	}
	flat := []float64{1000, 1000, 1000, 1000, 1000}
	cases := []struct {
		name                 string
		old, new             []float64 // EngineTick ns/op per round
		oldAllocs, newAllocs []int     // EngineTick allocs/op per round (nil: 0)
		newBytes             []int     // head EngineTick B/op per round (nil: 0; base is 0)
		wantFail             string    // substring of the gate error ("" = pass)
	}{
		// The host slows 2x from round 3 on; both sides move together.
		{"drifting host, no change", []float64{1000, 1000, 2000, 2000, 2000}, []float64{1010, 990, 2020, 1980, 2000}, nil, nil, nil, ""},
		{"one noisy round", flat, []float64{1000, 1600, 1000, 1000, 1000}, nil, nil, nil, ""},
		{"regression on a drifting host", []float64{1000, 1000, 2000, 2000, 2000}, []float64{1300, 1300, 2600, 2600, 2000}, nil, nil, nil, "ns/op"},
		{"regression with one lucky round", flat, []float64{1300, 1300, 1300, 900, 1300}, nil, nil, nil, "ns/op"},
		{"one more alloc fails", flat, flat, []int{3, 3, 3, 3, 3}, []int{4, 4, 4, 4, 4}, nil, "allocs/op"},
		{"fewer allocs and B/op jitter pass", flat, flat, []int{3, 3, 3, 3, 3}, []int{2, 2, 2, 2, 2}, []int{8, 16, 0, 24, 8}, ""},
	}
	at := func(xs []int, i int) int {
		if xs == nil {
			return 0
		}
		return xs[i]
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var paths []string
			for i := range tc.old {
				paths = append(paths,
					report(fmt.Sprintf("old-%d.json", i), tc.old[i], at(tc.oldAllocs, i), 0),
					report(fmt.Sprintf("new-%d.json", i), tc.new[i], at(tc.newAllocs, i), at(tc.newBytes, i)))
			}
			var sb strings.Builder
			err := compareReports(paths, &sb)
			if (tc.wantFail != "") != (err != nil) {
				t.Fatalf("gate error %v, want failure %v:\n%s", err, tc.wantFail != "", sb.String())
			}
			if err != nil && (!strings.Contains(err.Error(), "EngineTick") || !strings.Contains(err.Error(), tc.wantFail)) {
				t.Fatalf("gate error does not name the regressed row and its %s: %v", tc.wantFail, err)
			}
		})
	}
}
