package calibration

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/workload"
)

func TestImportJSONLBasic(t *testing.T) {
	src := strings.Join([]string{
		`{"seq":1,"kind":"run","at":0,"scope":"s","phase":"start","config":"c"}`,
		`{"seq":2,"kind":"tick","at":0,"scope":"s","dur":1,"load":0.5,"qps":10,"samples":3}`,
		`{"seq":3,"kind":"decision","at":5,"scope":"s","pod":"a","action":"AllowBEGrowth","load":0.5,"slack":0.4,"p99":0.02,"reason":"r"}`,
		`{"seq":4,"kind":"decision","at":5,"scope":"s","pod":"b","action":"StopBE","load":0.5,"slack":0.4,"p99":0.02,"reason":"r"}`,
		`{"seq":5,"kind":"be","at":5,"scope":"s","pod":"a","id":"be-1","op":"launch","cores":1,"ways":2}`,
		`{"seq":6,"kind":"be","at":9,"scope":"s","pod":"a","id":"be-1","op":"dispatch","cores":0,"ways":0}`,
		`{"seq":7,"kind":"experiment","scope":"experiment:fig7","id":"fig7","phase":"start"}`,
		`{"seq":8,"kind":"experiment","scope":"experiment:fig7","id":"fig7","phase":"end"}`,
		`{"seq":9,"kind":"fault","at":3,"scope":"s","fault":"storm","phase":"start","pod":"a","magnitude":2,"detail":"d"}`,
		"",
	}, "\n")
	set, err := ImportJSONL(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	wants := map[string]float64{
		"rhythm_engine_runs_total":                       1,
		"rhythm_engine_ticks_total":                      1,
		`rhythm_decisions_total{action="AllowBEGrowth"}`: 1,
		`rhythm_decisions_total{action="StopBE"}`:        1,
		`rhythm_be_events_total{op="launch"}`:            1,
		`rhythm_experiments_total{id="fig7"}`:            1,
		"rhythm_fault_events_total":                      1,
	}
	for key, want := range wants {
		if v, ok := set.Value(key); !ok || v != want {
			t.Errorf("%s = %v, %v (want %v)", key, v, ok, want)
		}
	}
	// The fleet-perspective dispatch op has no engine instrument.
	if _, ok := set.Value(`rhythm_be_events_total{op="dispatch"}`); ok {
		t.Error("dispatch op must not be counted")
	}
	// Both decision events share (scope, at): the per-tick slack/p99/load
	// observations are deduplicated to one.
	h, err := set.Histogram("rhythm_window_p99_seconds")
	if err != nil {
		t.Fatalf("p99 histogram: %v", err)
	}
	if h.Count != 1 {
		t.Fatalf("p99 count = %d, want 1 (per-tick dedupe)", h.Count)
	}
	if ids := ExperimentIDs(set); len(ids) != 1 || ids[0] != "fig7" {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
}

// TestImportJSONLStrict pins the strict-decode contract in the
// internal/workload style: unknown fields, missing seq/kind and unknown
// kinds each become a FieldError naming the event; all defects join.
func TestImportJSONLStrict(t *testing.T) {
	src := strings.Join([]string{
		`{"seq":1,"kind":"tick","at":0,"scope":"s","dur":1,"load":0.5,"qps":10,"samples":3}`,
		`{"seq":2,"kind":"tick","wibble":true}`,
		`{"kind":"tick","at":0}`,
		`{"seq":4}`,
		`{"seq":5,"kind":"martian"}`,
		`not json at all`,
		strings.Repeat("x", 1<<20),
	}, "\n")
	_, err := ImportJSONL(strings.NewReader(src))
	if err == nil {
		t.Fatal("want defects, got nil")
	}
	msg := err.Error()
	for _, want := range []string{
		`events[1]: unknown field "wibble"`,
		"events[2].seq: missing sequence number",
		"events[3].kind: missing event kind",
		`events[4].kind: unknown event kind "martian"`,
		"events[5]:",
		"events[6]: bufio.Scanner: token too long",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
}

// TestJSONLTraceMatchesMetricsSnapshot is the cross-artifact equivalence
// pin: a traced engine run's JSONL stream, re-imported, must reconstruct
// the engine's own counter and histogram families exactly — the same
// events drive both, so any disagreement means the sink and the importer
// drifted apart.
func TestJSONLTraceMatchesMetricsSnapshot(t *testing.T) {
	var buf bytes.Buffer
	bus := obs.NewBus(obs.NewJSONLSink(&buf))
	obs.Install(bus)
	defer obs.Uninstall()
	e, err := engine.New(engine.Config{
		Service: workload.Redis(),
		Pattern: loadgen.Constant(0.5),
		SLA:     0.00115,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress, bejobs.StreamDRAM},
		Seed:    2020,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	obs.Uninstall()
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}

	fromTrace, err := ImportJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-importing trace: %v", err)
	}
	direct := Snapshot(bus)

	if fromTrace.Len() == 0 {
		t.Fatal("trace reconstructed no series")
	}
	matched := 0
	for _, key := range fromTrace.Keys() {
		tv, _ := fromTrace.Value(key)
		dv, ok := direct.Value(key)
		if !ok {
			t.Errorf("trace-only series %s = %v (snapshot lacks it)", key, tv)
			continue
		}
		matched++
		// _sum series accumulate floats; event replay adds them in the
		// same order here (single engine), so exact equality holds.
		if math.Float64bits(tv) != math.Float64bits(dv) {
			t.Errorf("%s: trace %v != snapshot %v", key, tv, dv)
		}
	}
	if matched < 10 {
		t.Fatalf("only %d series matched; trace families: %v", matched, fromTrace.Families())
	}
	// Sanity: the run actually exercised the interesting families.
	for _, fam := range []string{
		"rhythm_engine_ticks_total", "rhythm_window_p99_seconds_count",
		"rhythm_decision_slack_count",
	} {
		if _, ok := fromTrace.Value(fam); !ok {
			t.Errorf("trace lacks %s", fam)
		}
	}
}

func TestImportFileDispatch(t *testing.T) {
	dir := t.TempDir()
	promPath := dir + "/m.prom"
	jsonlPath := dir + "/t.jsonl"
	writeFile(t, promPath, "# TYPE a counter\na 1\n")
	writeFile(t, jsonlPath, `{"seq":1,"kind":"tick","at":0,"scope":"s","dur":1,"load":0.5,"qps":1,"samples":1}`+"\n")
	p, err := ImportFile(promPath)
	if err != nil || p.Len() != 1 {
		t.Fatalf("prom dispatch: %v, %d", err, p.Len())
	}
	j, err := ImportFile(jsonlPath)
	if err != nil {
		t.Fatalf("jsonl dispatch: %v", err)
	}
	if v, _ := j.Value("rhythm_engine_ticks_total"); v != 1 {
		t.Fatalf("jsonl ticks = %v", v)
	}
	if _, err := ImportFile(dir + "/missing"); err == nil {
		t.Fatal("want error for missing file")
	}
}
