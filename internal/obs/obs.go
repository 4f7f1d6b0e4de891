// Package obs is the process-wide instrumentation bus: every controller
// decision, engine tick, BE lifecycle transition, profile-cache lookup and
// worker-pool dispatch can be observed as a typed event fanned out to
// pluggable sinks (JSONL event log, Chrome trace_event JSON), alongside
// counter/gauge/histogram instruments snapshottable in Prometheus text
// format. It is the decision-trace substrate for §3.5's Algorithm 2: with a
// bus installed, `rhythm trace <experiment>` shows which pod triggered
// StopBE vs CutBE, what the measured slack was, and how close the window
// p99 ran to the SLA — without changing a single byte of experiment output.
//
// Two properties are load-bearing and pinned by tests:
//
//   - The disabled path is free. With no bus installed every emit point is
//     a nil check: the zero Scope and nil instruments no-op, and the whole
//     path performs zero allocations (BenchmarkObsDisabled in
//     internal/benchmarks pins 0 allocs/op; `make bench` records it).
//   - Observation does not perturb the experiment. Events carry virtual
//     sim.Time nanoseconds only — no sink ever reads the wall clock — and
//     the bus touches neither experiment stdout nor any RNG stream, so
//     `run all` at seed 2020 is byte-identical with tracing on or off
//     (cmd/rhythm's TestDeterminismHarness proves it). Trace files are
//     deterministic under -jobs 1; under parallel runs event interleaving
//     (and therefore sequence numbers) may differ, but every event still
//     carries its scope and virtual timestamp.
//
// The bus is installed process-wide (Install/Uninstall) because the
// consumers — engines created deep inside parallel sweeps, the profile
// cache, the worker pool — have no common plumbing path; install before
// starting work and uninstall after, as cmd/rhythm does.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// NoTime marks events that occur outside any simulation clock (cache
// lookups, pool dispatches): sinks omit or zero the timestamp.
const NoTime int64 = -1

// Kind discriminates the typed events on the bus.
type Kind uint8

// The event kinds. KindRun brackets one engine run; KindTick is one engine
// simulation step; KindDecision is one Algorithm 2 controller decision;
// KindBE is a BE-instance lifecycle transition (launch/kill/suspend/
// resume/grow/cut); KindCache is a profile-cache lookup; KindPool is a
// worker-pool dispatch; KindExperiment brackets one registry experiment;
// KindFault is a fault-injection activation or recovery (internal/faults).
const (
	KindRun Kind = iota + 1
	KindTick
	KindDecision
	KindBE
	KindCache
	KindPool
	KindExperiment
	KindFault

	kindMax
)

// String names the kind as it appears in sink output.
func (k Kind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindTick:
		return "tick"
	case KindDecision:
		return "decision"
	case KindBE:
		return "be"
	case KindCache:
		return "cache"
	case KindPool:
		return "pool"
	case KindExperiment:
		return "experiment"
	case KindFault:
		return "fault"
	default:
		return "unknown"
	}
}

// Event is one observation on the bus. It is a flat union over the typed
// emitters on Scope: each kind populates the fields its sink serialization
// documents (see JSONLSink) and leaves the rest zero.
type Event struct {
	// Seq is the bus-assigned sequence number (1-based, publication order).
	Seq uint64
	// Kind discriminates which emitter produced the event.
	Kind Kind
	// At is the virtual sim.Time in nanoseconds, or NoTime for events that
	// occur outside any simulation clock. Sinks never read the wall clock.
	At int64
	// Dur is the event's virtual duration in nanoseconds (ticks), 0 if
	// instantaneous.
	Dur int64
	// Scope labels the emitting context (engine run, cache, pool).
	Scope string
	// Pod is the Servpod concerned, when any.
	Pod string
	// Op is the verb: the controller action for decisions, the lifecycle
	// transition for BE events, hit/miss for cache events, start/end for
	// run and experiment brackets.
	Op string
	// ID identifies the object: BE instance id, cache key, experiment id.
	ID string
	// Reason is the human-readable explanation (the Algorithm 2 branch for
	// decisions).
	Reason string
	// Load, Slack, P99 and QPS are the measured controller inputs.
	Load  float64
	Slack float64
	P99   float64
	QPS   float64
	// N and M are kind-specific small integers: samples per tick, pool
	// items and workers, BE instance cores and LLC ways.
	N int
	M int
}

// Bus fans events out to its sinks and hosts the instrument registry. All
// methods are safe for concurrent use; emits from parallel engines are
// serialized per sink under one mutex so sink output stays line-atomic.
type Bus struct {
	mu    sync.Mutex
	sinks []Sink
	seq   atomic.Uint64

	kindCount [kindMax]atomic.Uint64

	imu        sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewBus returns a bus publishing to the given sinks (none is valid: the
// instruments still accumulate and can be snapshotted with WriteMetrics).
func NewBus(sinks ...Sink) *Bus {
	return &Bus{
		sinks:      sinks,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// current is the installed process-wide bus (nil = disabled).
var current atomic.Pointer[Bus]

// Install makes b the process-wide bus. Install before starting the work
// to observe: consumers cache their Scope and instruments at construction
// time, so a bus installed mid-run is only picked up by engines created
// afterwards.
func Install(b *Bus) { current.Store(b) }

// Uninstall disables observation (the default state).
func Uninstall() { current.Store(nil) }

// Active returns the installed bus, or nil when observation is disabled.
// The nil result is usable: (*Bus)(nil).Scope returns the zero Scope and
// nil instruments, all of which no-op for free.
func Active() *Bus { return current.Load() }

// Close flushes and closes every sink. The bus must not be used afterwards.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, s := range b.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// publish stamps and fans out one event.
func (b *Bus) publish(ev Event) {
	ev.Seq = b.seq.Add(1)
	if ev.Kind < kindMax {
		b.kindCount[ev.Kind].Add(1)
	}
	b.mu.Lock()
	for _, s := range b.sinks {
		s.Emit(&ev)
	}
	b.mu.Unlock()
}

// EventCounts returns the number of events published so far per kind name,
// omitting kinds with no events (the `rhythm trace` summary reads it).
func (b *Bus) EventCounts() map[string]uint64 {
	out := make(map[string]uint64)
	if b == nil {
		return out
	}
	for k := Kind(1); k < kindMax; k++ {
		if n := b.kindCount[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// Scope is a bus handle labeled with the emitting context (one engine run,
// the profile cache, the worker pool). The zero Scope is valid and
// disabled: every emitter on it returns immediately without allocating,
// which is what makes instrumented hot paths free when no bus is installed.
type Scope struct {
	bus   *Bus
	label string
}

// Scope returns a handle labeled with the emitting context. Calling it on
// a nil bus returns the disabled zero Scope, so
// obs.Active().Scope(label) is always safe.
func (b *Bus) Scope(label string) Scope {
	if b == nil {
		return Scope{}
	}
	return Scope{bus: b, label: label}
}

// Enabled reports whether events emitted on this scope reach a bus.
func (s Scope) Enabled() bool { return s.bus != nil }

// Decision records one Algorithm 2 controller decision: the action chosen
// for pod from the measured load and latency slack, with the window p99
// the slack was computed from and the decision-branch reason.
func (s Scope) Decision(atNanos int64, pod, action string, load, slack, p99 float64, reason string) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{
		Kind: KindDecision, At: atNanos, Scope: s.label,
		Pod: pod, Op: action, Load: load, Slack: slack, P99: p99, Reason: reason,
	})
}

// Tick records one engine simulation step: the offered load fraction and
// QPS, the number of end-to-end latency samples drawn, and the tick's
// virtual duration.
func (s Scope) Tick(atNanos, durNanos int64, load, qps float64, samples int) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{
		Kind: KindTick, At: atNanos, Dur: durNanos, Scope: s.label,
		Load: load, QPS: qps, N: samples,
	})
}

// BE records a BE-instance lifecycle transition (op one of launch, kill,
// suspend, resume, grow, cut) with the instance's granted cores and LLC
// ways after the transition.
func (s Scope) BE(atNanos int64, pod, id, op string, cores, llcWays int) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{
		Kind: KindBE, At: atNanos, Scope: s.label,
		Pod: pod, ID: id, Op: op, N: cores, M: llcWays,
	})
}

// Cache records one content-keyed cache lookup (cache names which cache,
// e.g. "profile" or "slacklimit").
func (s Scope) Cache(cache, key string, hit bool) {
	if s.bus == nil {
		return
	}
	op := "miss"
	if hit {
		op = "hit"
	}
	s.bus.publish(Event{
		Kind: KindCache, At: NoTime, Scope: s.label,
		Pod: cache, ID: key, Op: op,
	})
}

// Pool records one worker-pool dispatch: items of work fanned out across
// workers goroutines.
func (s Scope) Pool(items, workers int) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{Kind: KindPool, At: NoTime, Scope: s.label, N: items, M: workers})
}

// RunPhase brackets one engine run (op "start" or "end"); reason carries
// the run's configuration summary.
func (s Scope) RunPhase(atNanos int64, op, reason string) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{Kind: KindRun, At: atNanos, Scope: s.label, Op: op, Reason: reason})
}

// Experiment brackets one registry experiment (op "start" or "end").
func (s Scope) Experiment(id, op string) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{Kind: KindExperiment, At: NoTime, Scope: s.label, ID: id, Op: op})
}

// Fault records a fault-injection edge: kind names the fault class
// (internal/faults), op is "start" or "end", pod the targeted Servpod
// ("" = service-wide), magnitude the fault's primary parameter (load or
// pressure multiplier, frequency cap, mu skew), and reason any extra
// detail (dropout mode, restart delay).
func (s Scope) Fault(atNanos int64, pod, kind, op string, magnitude float64, reason string) {
	if s.bus == nil {
		return
	}
	s.bus.publish(Event{
		Kind: KindFault, At: atNanos, Scope: s.label,
		Pod: pod, ID: kind, Op: op, Load: magnitude, Reason: reason,
	})
}

// ---------------------------------------------------------------------------
// Instruments. All are nil-safe: a nil *Counter/*Gauge/*Histogram no-ops,
// so consumers cache instrument pointers once (nil when the bus is
// disabled) and call them unconditionally on hot paths.

// Series keys render through the shared exposition grammar (SeriesKey in
// promtext.go), so instrument registration, the metrics sink and the
// calibration importer all agree on the same name{k="v"} spelling.

// Counter is a monotonically increasing instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil counter (no-op).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns (creating on first use) the counter with the given name
// and label pairs. Returns nil on a nil bus.
func (b *Bus) Counter(name string, labels ...string) *Counter {
	if b == nil {
		return nil
	}
	key := SeriesKey(name, labels)
	b.imu.Lock()
	defer b.imu.Unlock()
	c, ok := b.counters[key]
	if !ok {
		c = &Counter{}
		b.counters[key] = c
	}
	return c
}

// Gauge is a last-value instrument holding a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil gauge (no-op).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop). Safe on a nil gauge (no-op).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns (creating on first use) the gauge with the given name and
// label pairs. Returns nil on a nil bus.
func (b *Bus) Gauge(name string, labels ...string) *Gauge {
	if b == nil {
		return nil
	}
	key := SeriesKey(name, labels)
	b.imu.Lock()
	defer b.imu.Unlock()
	g, ok := b.gauges[key]
	if !ok {
		g = &Gauge{}
		b.gauges[key] = g
	}
	return g
}

// DefBuckets are general-purpose histogram bounds for values in [0, 1]
// (slack fractions); LatencyBuckets suit second-denominated tails.
var (
	DefBuckets     = []float64{-0.25, -0.1, 0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1}
	LatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
)

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records v. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Histogram returns (creating on first use) the histogram with the given
// name, bucket bounds and label pairs; bounds are fixed by the series'
// first call. Returns nil on a nil bus. Series of one family should share
// bounds (per-pod latency series do), so a family snapshot reads as one
// coherent Prometheus histogram family.
func (b *Bus) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if b == nil {
		return nil
	}
	key := SeriesKey(name, labels)
	b.imu.Lock()
	defer b.imu.Unlock()
	h, ok := b.histograms[key]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		b.histograms[key] = h
	}
	return h
}
