package calibration

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"rhythm/internal/obs"
)

// requireFieldErrors fails unless err is a joined error whose every part
// is a FieldError naming a location matched by field.
func requireFieldErrors(t *testing.T, err error, field *regexp.Regexp) {
	t.Helper()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("rejection is not a joined error: %T %v", err, err)
	}
	for _, e := range joined.Unwrap() {
		fe, ok := e.(FieldError)
		if !ok {
			t.Fatalf("defect is not a FieldError: %T %v", e, e)
		}
		if !field.MatchString(fe.Field) {
			t.Fatalf("defect names %q, want a match for %s", fe.Field, field)
		}
	}
}

var (
	linesField  = regexp.MustCompile(`^lines\[\d+\]$`)
	eventsField = regexp.MustCompile(`^events\[\d+\](\.[a-z]+)?$`)
)

// FuzzImportPrometheus holds the text-snapshot decoder to its contract on
// any input: no panic, and every rejection is a joined FieldError naming
// lines[N]. A clean input's histogram families must reconstruct.
func FuzzImportPrometheus(f *testing.F) {
	bus := obs.NewBus()
	bus.Counter("rhythm_experiments_total", "id", `fig"7\`+"\n").Inc()
	bus.Counter("rhythm_decisions_total", "action", "StopBE").Add(3)
	bus.Gauge("rhythm_be_instances", "pod", "a b}").Set(-1.5)
	h := bus.Histogram("rhythm_window_p99_seconds", obs.LatencyBuckets, "pod", "MySQL")
	h.Observe(0.004)
	h.Observe(2)
	var buf bytes.Buffer
	if err := bus.WriteMetrics(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# TYPE a counter\na 1 1700000000000\n# HELP a free text\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n")
	f.Add("# TYPE x martian\nx{a=\"\\q\"} NaN\nx{a=\"1\",} 1\n{} 2\n")
	f.Fuzz(func(t *testing.T, text string) {
		set, err := ImportPrometheus(strings.NewReader(text))
		if err != nil {
			requireFieldErrors(t, err, linesField)
			return
		}
		for _, fam := range set.Families() {
			if set.Type(fam) == "histogram" {
				set.Histogram(fam) // may reject inconsistent buckets; must not panic
			}
		}
	})
}

// FuzzImportJSONL holds the trace decoder to its contract on any input:
// no panic (the replay into a private bus and its re-parse included), and
// every rejection is a joined FieldError naming events[N] or one of its
// fields. A clean trace's replayed histograms must reconstruct.
func FuzzImportJSONL(f *testing.F) {
	for _, lines := range [][]string{{
		`{"seq":2,"kind":"experiment","scope":"experiment:fig7","id":"fig7","phase":"start"}`,
		`{"seq":3,"kind":"cache","scope":"profile-cache","cache":"profile","result":"miss","key":"E-commerce|levels=0.1,0.3|seed=2020"}`,
		`{"seq":1,"kind":"pool","scope":"pool","items":2,"workers":1}`,
		`{"seq":4,"kind":"run","at":0,"scope":"sla:E-commerce","phase":"start","config":"service=E-commerce policy=solo sla=0s duration=30s seed=2020"}`,
		`{"seq":5,"kind":"tick","at":0,"scope":"sla:E-commerce","dur":0.1,"load":1,"qps":1300,"samples":80}`,
		`{"seq":26,"kind":"decision","at":2,"scope":"sla:E-commerce","pod":"Haproxy","action":"SuspendBE","load":1,"slack":1,"p99":0.43906877599791294,"reason":"no BE policy"}`,
		`{"seq":27,"kind":"decision","at":2,"scope":"sla:E-commerce","pod":"MySQL","action":"SuspendBE","load":1,"slack":1,"p99":0.43906877599791294,"reason":"no BE policy"}`,
		`{"seq":6559,"kind":"be","at":2,"scope":"slack-trial:E-commerce|iter=7003","pod":"Amoeba","id":"Amoeba-wordcount-0","op":"launch","cores":1,"ways":2}`,
		`{"seq":535,"kind":"fault","at":36.4,"scope":"E-commerce|Rhythm|seed=7","fault":"be-crash","phase":"start","magnitude":0,"detail":"restart_delay=6.563229091s"}`,
	}, {
		`{"seq":1,"kind":"experiment","id":"a\"b\\c\nd} 1","phase":"start"}`,
		`{"seq":2,"kind":"decision","at":null,"scope":"s","action":"Stop\\\"BE\n","load":null,"slack":-1e308,"p99":1e308}`,
		`{"seq":3,"kind":"decision","at":1,"scope":"s","action":"","slack":-1e308,"p99":1e308}`,
	}, {
		`{"seq":1,"kind":"tick","wibble":true}`,
		`{"kind":"tick"}`,
		`{"seq":4}`,
		`{"seq":5,"kind":"martian"}`,
		`not json`,
	}} {
		f.Add(strings.Join(lines, "\n"))
	}
	f.Fuzz(func(t *testing.T, trace string) {
		set, err := ImportJSONL(strings.NewReader(trace))
		if err != nil {
			requireFieldErrors(t, err, eventsField)
			return
		}
		for _, fam := range set.Families() {
			if set.Type(fam) != "histogram" {
				continue
			}
			if _, err := set.Histogram(fam); err != nil {
				t.Fatalf("replayed histogram %s does not reconstruct: %v", fam, err)
			}
		}
	})
}
