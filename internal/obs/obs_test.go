package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDisabledPathIsSafe: with no bus installed, every consumer-facing
// entry point — Active, Scope, the zero Scope's emitters, nil
// instruments — must no-op without panicking. This is the contract that
// lets hot paths call obs unconditionally.
func TestDisabledPathIsSafe(t *testing.T) {
	Uninstall()
	if Active() != nil {
		t.Fatal("Active() non-nil after Uninstall")
	}
	sc := Active().Scope("anything")
	if sc.Enabled() {
		t.Fatal("zero Scope reports Enabled")
	}
	sc.Decision(0, "pod", "Nothing", 0.5, 0.1, 0.01, "r")
	sc.Tick(0, 1, 0.5, 100, 8)
	sc.BE(0, "pod", "be-1", "kill", 2, 3)
	sc.Cache("profile", "k", true)
	sc.Pool(10, 4)
	sc.RunPhase(0, "start", "cfg")
	sc.Experiment("fig2", "start")

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil Counter has value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil Gauge has value")
	}
	var h *Histogram
	h.Observe(0.5)
	if h.Count() != 0 {
		t.Fatal("nil Histogram has observations")
	}
	if Active().Counter("x") != nil || Active().Gauge("x") != nil ||
		Active().Histogram("x", DefBuckets) != nil {
		t.Fatal("nil bus returned non-nil instrument")
	}
	if got := Active().EventCounts(); len(got) != 0 {
		t.Fatalf("nil bus EventCounts = %v", got)
	}
	if err := Active().Close(); err != nil {
		t.Fatalf("nil bus Close: %v", err)
	}
}

// TestBusPublishAndCounts: events reach every sink in order with 1-based
// sequence numbers, and EventCounts tallies per kind name.
func TestBusPublishAndCounts(t *testing.T) {
	var a, b MemorySink
	bus := NewBus(&a, &b)
	sc := bus.Scope("eng")
	sc.Decision(2e9, "web", "StopBE", 0.6, -0.05, 0.012, "slack below zero")
	sc.Tick(3e9, 1e9, 0.6, 600, 16)
	sc.Cache("profile", "k1", false)

	for _, sink := range []*MemorySink{&a, &b} {
		evs := sink.Events()
		if len(evs) != 3 {
			t.Fatalf("sink got %d events, want 3", len(evs))
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d", i, ev.Seq)
			}
		}
		d := evs[0]
		if d.Kind != KindDecision || d.Pod != "web" || d.Op != "StopBE" ||
			d.Load != 0.6 || d.Slack != -0.05 || d.P99 != 0.012 ||
			d.Reason != "slack below zero" || d.Scope != "eng" || d.At != 2e9 {
			t.Fatalf("decision event mangled: %+v", d)
		}
		if evs[2].At != NoTime || evs[2].Op != "miss" {
			t.Fatalf("cache event mangled: %+v", evs[2])
		}
	}
	counts := bus.EventCounts()
	want := map[string]uint64{"decision": 1, "tick": 1, "cache": 1}
	if len(counts) != len(want) {
		t.Fatalf("EventCounts = %v, want %v", counts, want)
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("EventCounts[%s] = %d, want %d", k, counts[k], n)
		}
	}
}

// TestInstallActive: Install/Active round-trips and Uninstall disables.
func TestInstallActive(t *testing.T) {
	bus := NewBus()
	Install(bus)
	if Active() != bus {
		t.Fatal("Active() did not return the installed bus")
	}
	Uninstall()
	if Active() != nil {
		t.Fatal("Active() non-nil after Uninstall")
	}
}

// TestInstruments: counters accumulate atomically, gauges hold last
// value and support Add, histograms bucket observations by bound, and
// get-or-create returns the same instrument for the same key.
func TestInstruments(t *testing.T) {
	bus := NewBus()
	c := bus.Counter("reqs", "action", "StopBE")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if bus.Counter("reqs", "action", "StopBE") != c {
		t.Fatal("same key produced a second counter")
	}
	if bus.Counter("reqs", "action", "CutBE") == c {
		t.Fatal("different label shared a counter")
	}

	g := bus.Gauge("workers")
	g.Set(4)
	g.Add(-1)
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3", g.Value())
	}

	h := bus.Histogram("slack", []float64{0, 0.1, 0.2})
	for _, v := range []float64{-0.5, 0.05, 0.15, 0.15, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	wantBuckets := []uint64{1, 1, 2, 1} // (-inf,0], (0,0.1], (0.1,0.2], (0.2,+inf)
	for i, want := range wantBuckets {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if bus.Histogram("slack", nil) != h {
		t.Fatal("same name produced a second histogram")
	}
}

// TestInstrumentsConcurrent: instrument updates from many goroutines
// must not lose increments (run under -race in make check).
func TestInstrumentsConcurrent(t *testing.T) {
	bus := NewBus()
	c := bus.Counter("n")
	g := bus.Gauge("g")
	h := bus.Histogram("h", DefBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %g, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram = %d, want %d", h.Count(), workers*per)
	}
}

// TestJSONLSink: every line is valid JSON carrying the kind-specific
// fields the package doc promises; clock-less events omit "at".
func TestJSONLSink(t *testing.T) {
	var out bytes.Buffer
	sink := NewJSONLSink(&out)
	bus := NewBus(sink)
	sc := bus.Scope(`eng "q"`)
	sc.Decision(1500000000, "web", "CutBE", 0.7, 0.02, 0.009, `load 0.7 > loadlimit`)
	sc.Tick(2e9, 1e9, 0.7, 700, 32)
	sc.BE(2e9, "web", "batch-3", "suspend", 0, 0)
	sc.Cache("slacklimit", "k", true)
	sc.Pool(12, 4)
	sc.RunPhase(0, "start", "svc=web")
	sc.Experiment("fig2", "end")
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), out.String())
	}
	var recs []map[string]interface{}
	for i, ln := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		recs = append(recs, m)
	}
	d := recs[0]
	if d["kind"] != "decision" || d["pod"] != "web" || d["action"] != "CutBE" ||
		d["load"] != 0.7 || d["slack"] != 0.02 || d["p99"] != 0.009 ||
		d["reason"] != "load 0.7 > loadlimit" || d["at"] != 1.5 ||
		d["scope"] != `eng "q"` {
		t.Fatalf("decision line wrong: %v", d)
	}
	if recs[1]["dur"] != 1.0 || recs[1]["samples"] != 32.0 || recs[1]["qps"] != 700.0 {
		t.Fatalf("tick line wrong: %v", recs[1])
	}
	if recs[2]["op"] != "suspend" || recs[2]["id"] != "batch-3" ||
		recs[2]["cores"] != 0.0 || recs[2]["ways"] != 0.0 {
		t.Fatalf("be line wrong: %v", recs[2])
	}
	if recs[3]["cache"] != "slacklimit" || recs[3]["result"] != "hit" {
		t.Fatalf("cache line wrong: %v", recs[3])
	}
	if _, hasAt := recs[3]["at"]; hasAt {
		t.Fatalf("clock-less cache event carries at: %v", recs[3])
	}
	if recs[4]["items"] != 12.0 || recs[4]["workers"] != 4.0 {
		t.Fatalf("pool line wrong: %v", recs[4])
	}
	if recs[5]["phase"] != "start" || recs[5]["config"] != "svc=web" {
		t.Fatalf("run line wrong: %v", recs[5])
	}
	if recs[6]["id"] != "fig2" || recs[6]["phase"] != "end" {
		t.Fatalf("experiment line wrong: %v", recs[6])
	}
}

// TestChromeSink: the document is one valid JSON object in trace_event
// shape, with ticks as duration events and metadata naming processes.
func TestChromeSink(t *testing.T) {
	var out bytes.Buffer
	sink := NewChromeSink(&out)
	bus := NewBus(sink)
	sc := bus.Scope("eng")
	sc.Tick(1e9, 1e9, 0.5, 500, 16)
	sc.Decision(2e9, "web", "StopBE", 0.5, -0.1, 0.02, "r")
	sc.BE(2e9, "web", "b1", "kill", 0, 0)
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var phases []string
	var names []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
		names = append(names, ev["name"].(string))
	}
	// process_name metadata, tick X, thread_name metadata for pod "web",
	// decision instant, BE instant.
	wantPh := []string{"M", "X", "M", "i", "i"}
	if fmt.Sprint(phases) != fmt.Sprint(wantPh) {
		t.Fatalf("phases = %v (names %v), want %v", phases, names, wantPh)
	}
	tick := doc.TraceEvents[1]
	if tick["ts"] != 1e6 || tick["dur"] != 1e6 { // µs
		t.Fatalf("tick timing wrong: %v", tick)
	}
}

// TestWriteMetrics: the snapshot is Prometheus text format — TYPE lines
// per family, sorted series, cumulative histogram buckets ending at +Inf
// with _sum and _count.
func TestWriteMetrics(t *testing.T) {
	bus := NewBus()
	bus.Counter("rhythm_decisions_total", "action", "StopBE").Add(7)
	bus.Counter("rhythm_decisions_total", "action", "CutBE").Add(2)
	bus.Gauge("rhythm_pool_active_workers").Set(3)
	h := bus.Histogram("rhythm_decision_slack", []float64{0, 0.1})
	h.Observe(-0.2)
	h.Observe(0.05)
	h.Observe(0.5)

	var out bytes.Buffer
	if err := bus.WriteMetrics(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE rhythm_decisions_total counter",
		`rhythm_decisions_total{action="StopBE"} 7`,
		`rhythm_decisions_total{action="CutBE"} 2`,
		"# TYPE rhythm_pool_active_workers gauge",
		"rhythm_pool_active_workers 3",
		"# TYPE rhythm_decision_slack histogram",
		`rhythm_decision_slack_bucket{le="0"} 1`,
		`rhythm_decision_slack_bucket{le="0.1"} 2`,
		`rhythm_decision_slack_bucket{le="+Inf"} 3`,
		"rhythm_decision_slack_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics snapshot missing %q:\n%s", want, text)
		}
	}
	// Buckets must appear in increasing le order (the exposition format's
	// requirement), not lexically — "+Inf" last.
	i0 := strings.Index(text, `le="0"`)
	i1 := strings.Index(text, `le="0.1"`)
	iInf := strings.Index(text, `le="+Inf"`)
	if !(i0 < i1 && i1 < iInf) {
		t.Fatalf("histogram buckets out of le order (indices %d, %d, %d):\n%s", i0, i1, iInf, text)
	}
	// Deterministic: two snapshots of the same bus render identically.
	var again bytes.Buffer
	if err := bus.WriteMetrics(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Fatal("WriteMetrics is not deterministic across calls")
	}
}

// TestSyncWriterAtomicLines: concurrent writers through one SyncWriter
// never interleave mid-line — the bug the CLI routes all diagnostics
// through obs.NewSyncWriter to fix.
func TestSyncWriterAtomicLines(t *testing.T) {
	var out bytes.Buffer
	w := NewSyncWriter(&out)
	var wg sync.WaitGroup
	const workers, lines = 8, 200
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				fmt.Fprintf(w, "worker-%d line %d suffix\n", id, i)
			}
		}(id)
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(got) != workers*lines {
		t.Fatalf("got %d lines, want %d", len(got), workers*lines)
	}
	for _, ln := range got {
		if !strings.HasPrefix(ln, "worker-") || !strings.HasSuffix(ln, "suffix") {
			t.Fatalf("interleaved line: %q", ln)
		}
	}
}

// TestSyncWriterNil: a SyncWriter over nil (and a nil *SyncWriter)
// discards without error.
func TestSyncWriterNil(t *testing.T) {
	w := NewSyncWriter(nil)
	if n, err := w.Write([]byte("x")); n != 1 || err != nil {
		t.Fatalf("nil-backed Write = (%d, %v)", n, err)
	}
	var nilw *SyncWriter
	if n, err := nilw.Write([]byte("xy")); n != 2 || err != nil {
		t.Fatalf("nil SyncWriter Write = (%d, %v)", n, err)
	}
}

// TestKindStrings: kind names are stable — sink output and EventCounts
// keys depend on them.
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindRun: "run", KindTick: "tick", KindDecision: "decision",
		KindBE: "be", KindCache: "cache", KindPool: "pool",
		KindExperiment: "experiment", Kind(0): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestMetricKey: the exposition-format series key.
func TestMetricKey(t *testing.T) {
	if got := SeriesKey("n", nil); got != "n" {
		t.Fatalf("SeriesKey no labels = %q", got)
	}
	if got := SeriesKey("n", []string{"a", "1", "b", "2"}); got != `n{a="1",b="2"}` {
		t.Fatalf("SeriesKey = %q", got)
	}
	if got := SeriesKey("n", []string{"a", `x"y\z`}); got != `n{a="x\"y\\z"}` {
		t.Fatalf("SeriesKey escaped = %q", got)
	}
}
