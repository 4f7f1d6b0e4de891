package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzEventJSONL holds the trace-event schema's two directions to each
// other. On any line DecodeJSONL must not panic, every rejection of a JSON
// object must name the offending key, and an accepted line must survive
// re-encoding. Every event a Scope method emits must decode back to
// itself from its JSONL line, and the closed Chrome document must be valid
// JSON.
func FuzzEventJSONL(f *testing.F) {
	f.Add(`{"seq":1,"kind":"tick","at":0,"scope":"s","dur":1,"load":0.5,"qps":10,"samples":3}`,
		`eng "q"`, "web", "a\\b\x01\xffé", 0.5, math.Inf(1), int64(2e9), int64(1e9), 3, 4)
	f.Add(`{"seq":2,"kind":"decision","at":1.5,"scope":"s","pod":"a","action":"StopBE","load":null,"slack":-0.1,"p99":0.02}`,
		"", "", "", math.NaN(), math.Inf(-1), NoTime, int64(0), -1, 0)
	f.Add(`{"seq":3,"kind":"be","pod":"a","op":"cut","cores":1,"ways":2,"slack":1}`,
		"x", "p ", "\"}\n", -0.0, 1e308, int64(1)<<52-1, -(int64(1)<<52 - 1), 1<<62, -7)
	f.Add(`{"seq":4,"kind":"pool","items":1.5,"workers":2}`,
		"s", "p", "t", 5e-324, -1e-300, int64(-2), int64(123456789), 0, 0)
	f.Add(`[{"seq":1}]`, "", "", "", 0.0, 0.0, int64(0), int64(0), 0, 0)
	f.Fuzz(func(t *testing.T, line, scope, pod, text string, x, y float64, at, dur int64, n, m int) {
		checkDecode(t, []byte(line))

		// Virtual times round-trip exactly below 2^51 ns (26 days).
		if at != NoTime {
			at %= 1 << 51
		}
		dur %= 1 << 51
		var mem MemorySink
		var jsonl, chrome bytes.Buffer
		bus := NewBus(&mem, NewJSONLSink(&jsonl), NewChromeSink(&chrome))
		sc := bus.Scope(scope)
		sc.Decision(at, pod, text, x, y, -x, text)
		sc.Tick(at, dur, y, x, n)
		sc.BE(at, pod, text, text, n, m)
		sc.Cache(pod, text, n%2 == 0)
		sc.Pool(n, m)
		sc.RunPhase(at, text, text)
		sc.Experiment(text, text)
		sc.Fault(at, pod, text, text, x, text)
		if err := bus.Close(); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(chrome.Bytes()) {
			t.Fatalf("Chrome document is not valid JSON:\n%s", chrome.Bytes())
		}
		lines := strings.Split(strings.TrimSuffix(jsonl.String(), "\n"), "\n")
		evs := mem.Events()
		if len(lines) != len(evs) {
			t.Fatalf("%d lines for %d events", len(lines), len(evs))
		}
		for i, ln := range lines {
			got, err := DecodeJSONL([]byte(ln))
			if err != nil {
				t.Fatalf("line %s: %v", ln, err)
			}
			if want := spelled(evs[i]); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("line %s\ndecodes to %+v\nwant       %+v", ln, got, want)
			}
		}
	})
}

// checkDecode runs DecodeJSONL on an arbitrary line: a rejection of a JSON
// object names a key, and an accepted line re-encodes to a line that
// decodes to the same event.
func checkDecode(t *testing.T, line []byte) {
	ev, err := DecodeJSONL(line)
	if err != nil {
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("rejection is %T, not a *DecodeError: %v", err, err)
		}
		var obj map[string]json.RawMessage
		if json.Unmarshal(line, &obj) != nil || de.Field == "seq" || de.Field == "kind" {
			return
		}
		for key := range obj {
			if strings.Contains(de.Reason, fmt.Sprintf("%q", key)) {
				return
			}
		}
		for _, f := range ev.Kind.fields() {
			if de.Reason == fmt.Sprintf("missing field %q", f.key) {
				return
			}
		}
		t.Fatalf("rejection of %s names no key: %v", line, err)
	}
	var out bytes.Buffer
	sink := NewJSONLSink(&out)
	sink.Emit(&ev)
	sink.Close()
	again, err := DecodeJSONL(bytes.TrimSuffix(out.Bytes(), []byte("\n")))
	if err != nil || fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", ev) {
		t.Fatalf("%s decodes to %+v, which re-encodes as %s and decodes to %+v (%v)",
			line, ev, out.Bytes(), again, err)
	}
}

// spelled is ev as JSONL can carry it: ±Inf becomes NaN (both are null),
// and each byte of a string that is not UTF-8 becomes U+FFFD.
func spelled(ev Event) Event {
	for _, v := range []*float64{&ev.Load, &ev.Slack, &ev.P99, &ev.QPS} {
		if math.IsInf(*v, 0) {
			*v = math.NaN()
		}
	}
	for _, s := range []*string{&ev.Scope, &ev.Pod, &ev.Op, &ev.ID, &ev.Reason} {
		*s = string([]rune(*s))
	}
	return ev
}
