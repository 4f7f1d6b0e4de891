package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Sink consumes events published on a Bus. Emit is always called under the
// bus mutex, so implementations need no locking of their own and their
// output stays line-atomic under parallel runs. The *Event is only valid
// for the duration of the call.
type Sink interface {
	Emit(ev *Event)
	// Close flushes buffered output. The bus calls it from Bus.Close.
	Close() error
}

// ---------------------------------------------------------------------------
// JSONL sink

// JSONLSink writes one JSON object per event, in publication order. Fields
// are emitted per kind (decisions carry action/load/slack/p99/reason, ticks
// carry load/qps/samples/dur, and so on); "at" is virtual seconds since the
// simulation start and is omitted for events outside any simulation clock.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink returns a sink writing JSON lines to w. The caller owns any
// underlying file; Close flushes but does not close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 64<<10)}
}

// Emit serializes one event as a JSON line.
func (s *JSONLSink) Emit(ev *Event) {
	b := s.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.At != NoTime {
		b = append(b, `,"at":`...)
		b = appendFloat(b, float64(ev.At)/1e9)
	}
	b = appendStr(b, "scope", ev.Scope)
	switch ev.Kind {
	case KindDecision:
		b = appendStr(b, "pod", ev.Pod)
		b = appendStr(b, "action", ev.Op)
		b = append(b, `,"load":`...)
		b = appendFloat(b, ev.Load)
		b = append(b, `,"slack":`...)
		b = appendFloat(b, ev.Slack)
		b = append(b, `,"p99":`...)
		b = appendFloat(b, ev.P99)
		b = appendStr(b, "reason", ev.Reason)
	case KindTick:
		b = append(b, `,"dur":`...)
		b = appendFloat(b, float64(ev.Dur)/1e9)
		b = append(b, `,"load":`...)
		b = appendFloat(b, ev.Load)
		b = append(b, `,"qps":`...)
		b = appendFloat(b, ev.QPS)
		b = append(b, `,"samples":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
	case KindBE:
		b = appendStr(b, "pod", ev.Pod)
		b = appendStr(b, "id", ev.ID)
		b = appendStr(b, "op", ev.Op)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
		b = append(b, `,"ways":`...)
		b = strconv.AppendInt(b, int64(ev.M), 10)
	case KindCache:
		b = appendStr(b, "cache", ev.Pod)
		b = appendStr(b, "result", ev.Op)
		b = appendStr(b, "key", ev.ID)
	case KindPool:
		b = append(b, `,"items":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(ev.M), 10)
	case KindRun:
		b = appendStr(b, "phase", ev.Op)
		b = appendStr(b, "config", ev.Reason)
	case KindExperiment:
		b = appendStr(b, "id", ev.ID)
		b = appendStr(b, "phase", ev.Op)
	case KindFault:
		b = appendStr(b, "fault", ev.ID)
		b = appendStr(b, "phase", ev.Op)
		b = appendStr(b, "pod", ev.Pod)
		b = append(b, `,"magnitude":`...)
		b = appendFloat(b, ev.Load)
		b = appendStr(b, "detail", ev.Reason)
	}
	b = append(b, '}', '\n')
	s.buf = b
	s.w.Write(b)
}

// Close flushes buffered lines.
func (s *JSONLSink) Close() error { return s.w.Flush() }

// appendStr appends ,"key":"value" with JSON escaping, skipping empty
// values so lines stay compact.
func appendStr(b []byte, key, val string) []byte {
	if val == "" {
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return appendQuoted(b, val)
}

// appendQuoted appends a JSON string literal. Scope labels, cache keys and
// reasons are plain ASCII by construction; quotes, backslashes and control
// bytes are escaped for safety.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// appendFloat appends v in Go's shortest-roundtrip decimal form — the same
// deterministic rendering for a given bit pattern on every platform. NaN
// and the infinities (possible under measurement-dropout faults: a blind
// controller's slack is NaN) render as null, since bare NaN/Inf tokens are
// not valid JSON.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// ---------------------------------------------------------------------------
// Chrome trace_event sink

// ChromeSink writes the Chrome trace_event JSON format for chrome://tracing
// (or Perfetto): each scope becomes a process, each Servpod a thread; ticks
// are duration events, decisions and BE transitions instant events. Load it
// via chrome://tracing "Load" or ui.perfetto.dev.
type ChromeSink struct {
	w     *bufio.Writer
	buf   []byte
	first bool
	pids  map[string]int
	tids  map[string]int
}

// NewChromeSink returns a sink writing one trace_event JSON document to w.
// The caller owns any underlying file; Close writes the closing bracket
// and flushes but does not close it.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{
		w:     bufio.NewWriterSize(w, 64<<10),
		first: true,
		pids:  make(map[string]int),
		tids:  make(map[string]int),
	}
	s.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return s
}

// pid interns the scope as a process id, emitting the process_name
// metadata event on first sight.
func (s *ChromeSink) pid(scope string) int {
	p, ok := s.pids[scope]
	if !ok {
		p = len(s.pids) + 1
		s.pids[scope] = p
		s.meta("process_name", p, 0, scope)
	}
	return p
}

// tid interns the pod as a thread id within scope (0 = the scope's main
// track), emitting thread_name metadata on first sight.
func (s *ChromeSink) tid(scope string, pid int, pod string) int {
	if pod == "" {
		return 0
	}
	key := scope + "\x00" + pod
	t, ok := s.tids[key]
	if !ok {
		t = len(s.tids) + 1
		s.tids[key] = t
		s.meta("thread_name", pid, t, pod)
	}
	return t
}

func (s *ChromeSink) meta(name string, pid, tid int, value string) {
	b := s.buf[:0]
	b = s.sep(b)
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendQuoted(b, value)
	b = append(b, '}', '}')
	s.buf = b
	s.w.Write(b)
}

func (s *ChromeSink) sep(b []byte) []byte {
	if s.first {
		s.first = false
		return b
	}
	return append(b, ',')
}

// Emit serializes one event. Events without a simulation timestamp render
// at ts 0 on their scope's main track.
func (s *ChromeSink) Emit(ev *Event) {
	pid := s.pid(ev.Scope)
	tid := s.tid(ev.Scope, pid, ev.Pod)
	ts := 0.0
	if ev.At != NoTime {
		ts = float64(ev.At) / 1e3 // ns -> µs
	}

	name, cat, ph := "", "", "i"
	switch ev.Kind {
	case KindTick:
		name, cat, ph = "tick", "engine", "X"
	case KindDecision:
		name, cat = ev.Op, "decision"
	case KindBE:
		name, cat = "be:"+ev.Op, "be"
	case KindCache:
		name, cat = "cache:"+ev.Op, "cache"
	case KindPool:
		name, cat = "pool", "pool"
	case KindRun:
		name, cat = "run:"+ev.Op, "run"
	case KindExperiment:
		name, cat = "experiment:"+ev.Op, "experiment"
	case KindFault:
		name, cat = "fault:"+ev.ID+":"+ev.Op, "fault"
	default:
		name, cat = ev.Kind.String(), "misc"
	}

	b := s.buf[:0]
	b = s.sep(b)
	b = append(b, `{"name":`...)
	b = appendQuoted(b, name)
	b = append(b, `,"cat":"`...)
	b = append(b, cat...)
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = appendFloat(b, ts)
	if ph == "X" {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, float64(ev.Dur)/1e3)
	} else if ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{`...)
	switch ev.Kind {
	case KindDecision:
		b = append(b, `"load":`...)
		b = appendFloat(b, ev.Load)
		b = append(b, `,"slack":`...)
		b = appendFloat(b, ev.Slack)
		b = append(b, `,"p99":`...)
		b = appendFloat(b, ev.P99)
		if ev.Reason != "" {
			b = append(b, `,"reason":`...)
			b = appendQuoted(b, ev.Reason)
		}
	case KindTick:
		b = append(b, `"load":`...)
		b = appendFloat(b, ev.Load)
		b = append(b, `,"qps":`...)
		b = appendFloat(b, ev.QPS)
		b = append(b, `,"samples":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
	case KindBE:
		b = append(b, `"id":`...)
		b = appendQuoted(b, ev.ID)
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
		b = append(b, `,"ways":`...)
		b = strconv.AppendInt(b, int64(ev.M), 10)
	case KindCache:
		b = append(b, `"key":`...)
		b = appendQuoted(b, ev.ID)
	case KindPool:
		b = append(b, `"items":`...)
		b = strconv.AppendInt(b, int64(ev.N), 10)
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(ev.M), 10)
	case KindRun:
		if ev.Reason != "" {
			b = append(b, `"config":`...)
			b = appendQuoted(b, ev.Reason)
		}
	case KindExperiment:
		b = append(b, `"id":`...)
		b = appendQuoted(b, ev.ID)
	case KindFault:
		b = append(b, `"magnitude":`...)
		b = appendFloat(b, ev.Load)
		if ev.Reason != "" {
			b = append(b, `,"detail":`...)
			b = appendQuoted(b, ev.Reason)
		}
	}
	b = append(b, '}', '}')
	s.buf = b
	s.w.Write(b)
}

// Close writes the closing bracket and flushes.
func (s *ChromeSink) Close() error {
	s.w.WriteString("]}\n")
	return s.w.Flush()
}

// ---------------------------------------------------------------------------
// Memory sink (tests)

// MemorySink retains every event in memory; tests assert against Events.
type MemorySink struct {
	mu  sync.Mutex
	evs []Event
}

// Emit appends a copy of the event.
func (s *MemorySink) Emit(ev *Event) {
	s.mu.Lock()
	s.evs = append(s.evs, *ev)
	s.mu.Unlock()
}

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// Events returns a copy of the captured events in publication order.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.evs...)
}

// Reset discards captured events.
func (s *MemorySink) Reset() {
	s.mu.Lock()
	s.evs = nil
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Prometheus text-format snapshot

// WriteMetrics writes every instrument registered on the bus in Prometheus
// text exposition format. It is the one place an instrument becomes
// series: a counter or gauge is one line under its key; a histogram is one
// _bucket line per bound, cumulative in bound order (the le ordering the
// exposition format requires) with the le label last, ending at +Inf,
// then _sum and _count. Families are sorted by name and series within a
// family by key, so successive snapshots diff cleanly. Keys and values go
// through the shared grammar of promtext.go, which is what the calibration
// importer parses; calibration.Snapshot reads a live bus through this text.
func (b *Bus) WriteMetrics(w io.Writer) error {
	if b == nil {
		return nil
	}
	type series struct {
		name, key, typ string
		labels         []string
		c              *Counter
		g              *Gauge
		h              *Histogram
	}
	var all []series
	b.imu.Lock()
	for key, c := range b.counters {
		all = append(all, series{key: key, typ: "counter", c: c})
	}
	for key, g := range b.gauges {
		all = append(all, series{key: key, typ: "gauge", g: g})
	}
	for key, h := range b.histograms {
		all = append(all, series{key: key, typ: "histogram", h: h})
	}
	b.imu.Unlock()
	for i := range all {
		// Keys were rendered by SeriesKey at registration, so they parse
		// back; one that does not renders as an unlabeled family of the
		// full key.
		name, labels, err := ParseSeriesKey(all[i].key)
		if err != nil {
			name, labels = all[i].key, nil
		}
		all[i].name, all[i].labels = name, labels
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].key < all[j].key
	})

	var buf bytes.Buffer
	family := ""
	for _, s := range all {
		if s.name != family {
			family = s.name
			fmt.Fprintf(&buf, "# TYPE %s %s\n", s.name, s.typ)
		}
		switch {
		case s.h != nil:
			bucket := func(le string) string {
				return SeriesKey(s.name+"_bucket", append(append([]string{}, s.labels...), "le", le))
			}
			cum := uint64(0)
			for i, bound := range s.h.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(&buf, "%s %d\n", bucket(FormatMetricValue(bound)), cum)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			fmt.Fprintf(&buf, "%s %d\n", bucket("+Inf"), cum)
			fmt.Fprintf(&buf, "%s %s\n", SeriesKey(s.name+"_sum", s.labels), FormatMetricValue(s.h.Sum()))
			fmt.Fprintf(&buf, "%s %d\n", SeriesKey(s.name+"_count", s.labels), s.h.Count())
		case s.c != nil:
			fmt.Fprintf(&buf, "%s %d\n", s.key, s.c.Value())
		default:
			fmt.Fprintf(&buf, "%s %s\n", s.key, FormatMetricValue(s.g.Value()))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}
