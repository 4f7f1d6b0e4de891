package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rhythm/internal/analyzer"
	"rhythm/internal/benchmarks"
	"rhythm/internal/obs"
	"rhythm/internal/profiler"
	"rhythm/internal/queueing"
	"rhythm/internal/trace"
)

// This file is the traced run: wall-clock spans around the harness's own
// calls into each layer, kept in memory and written when the run ends,
// and a counting sink on the program's existing obs bus. The sink stamps
// host time on the events the program already emits, which attributes
// time to layers reached only inside other calls (engine runs inside the
// Algorithm 1 search, machine slices inside a fleet epoch). The program
// itself is not changed; with no bus installed it pays nothing.

// span is one timed call from the harness into a layer.
type span struct {
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Parent int     `json:"parent"` // 1-based index of the enclosing span; 0 at the root
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer records spans and layer measurements for one traced pass. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	sink  *countSink
	bus   *obs.Bus

	expBusy, expCritical time.Duration
	expCriticalID        string

	// Replayed offline layers.
	genMs, analyzeMs, analyzerUs float64
	traceEvents                  int
}

func newTracer() *tracer {
	s := &countSink{runs: map[string]int{}, open: map[string][]time.Time{}, scopeTicks: map[string]int{}}
	return &tracer{t0: time.Now(), sink: s, bus: obs.NewBus(s)}
}

func (t *tracer) since(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e6 }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1] + 1
	}
	now := time.Now()
	t.spans = append(t.spans, span{Name: name, Detail: detail, Parent: parent, Start: t.since(now)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// beginRun opens a span around a core.System.Run call and marks when it
// was issued, so the time until the engine announces its run is
// attributed to engine construction.
func (t *tracer) beginRun(detail string) int {
	if t == nil {
		return 0
	}
	i := t.begin("core.System.Run", detail)
	t.sink.opStart = time.Now()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = t.since(time.Now())
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) experiment(id string, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.expBusy += elapsed
	if elapsed > t.expCritical {
		t.expCritical, t.expCriticalID = elapsed, id
	}
}

// spanMs returns the durations of the named spans.
func (t *tracer) spanMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// countSink counts bus events and stamps host time on the ones that
// bracket work. The bus serializes Emit under its own mutex, so the sink
// is safe with parallel engines and needs no lock of its own; it is read
// only after the traced pass, once every worker has returned.
type countSink struct {
	ticks, decisions, beOps int
	evictions, fleetAdmits  int
	pools, poolItems        int
	runs                    map[string]int
	open                    map[string][]time.Time
	scopeTicks              map[string]int
	bracketNs               int64
	bracketTicks            int
	trialMs                 []float64
	trials, trialViolations int
	opStart                 time.Time // set by beginRun; colocate calls it on the engines' goroutine
	newUs                   []float64
	epochStart, lastTick    time.Time
	epochTicks              int
	sliceMs, barrierMs      []float64
	sliceNs                 int64
	sliceTicks              int
	cacheHits, cacheMisses  int
}

// runClass buckets an engine run by the label its caller gave it.
func runClass(scope string) string {
	for _, p := range []string{"slack-trial", "profile", "sla"} {
		if strings.HasPrefix(scope, p+":") {
			return p
		}
	}
	return "other"
}

func (s *countSink) Emit(ev *obs.Event) {
	now := time.Now()
	switch ev.Kind {
	case obs.KindTick:
		s.ticks++
		s.scopeTicks[ev.Scope]++
		s.epochTicks++
		s.lastTick = now
	case obs.KindDecision:
		s.decisions++
	case obs.KindBE:
		if ev.Scope != "fleet" {
			s.beOps++
		} else if ev.Op == "evict" {
			s.evictions++
		} else if ev.Op == "dispatch" {
			s.fleetAdmits++
		}
	case obs.KindPool:
		s.pools++
		s.poolItems += ev.N
	case obs.KindCache:
		if ev.Op == "hit" {
			s.cacheHits++
		} else {
			s.cacheMisses++
		}
	case obs.KindRun:
		switch ev.Op {
		case "start":
			s.runs[runClass(ev.Scope)]++
			s.open[ev.Scope] = append(s.open[ev.Scope], now)
			s.scopeTicks[ev.Scope] = 0
			if !s.opStart.IsZero() {
				s.newUs = append(s.newUs, float64(now.Sub(s.opStart))/1e3)
				s.opStart = time.Time{}
			}
		case "end":
			st := s.open[ev.Scope]
			if len(st) == 0 {
				return
			}
			d := now.Sub(st[len(st)-1])
			s.bracketNs += int64(d)
			s.bracketTicks += s.scopeTicks[ev.Scope]
			if len(st) == 1 {
				delete(s.open, ev.Scope)
				delete(s.scopeTicks, ev.Scope)
			} else {
				s.open[ev.Scope] = st[:len(st)-1]
			}
			if runClass(ev.Scope) == "slack-trial" {
				s.trials++
				s.trialMs = append(s.trialMs, float64(d)/1e6)
				if i := strings.LastIndex(ev.Reason, "violations="); i >= 0 && ev.Reason[i+len("violations="):] != "0" {
					s.trialViolations++
				}
			}
		case "epoch-start":
			s.epochStart, s.lastTick = now, now
			s.epochTicks = 0
		case "epoch-end":
			slice := s.lastTick.Sub(s.epochStart)
			s.sliceNs += int64(slice)
			s.sliceTicks += s.epochTicks
			s.sliceMs = append(s.sliceMs, float64(slice)/1e6)
			s.barrierMs = append(s.barrierMs, float64(now.Sub(s.lastTick))/1e6)
		}
	}
}

func (s *countSink) Close() error { return nil }

// replayOffline re-runs, per profiled service, the analyzer calls
// profiler.Run makes internally and, per chain service and load level,
// its tracer calls with the same generation options, and times them from
// outside. Each replayed service and level is an op, and it fails when
// its result differs, bit for bit, from the profile's: the replayed
// options are a copy of the profiler's, and a mismatch means they no
// longer measure its work. (The noise-event count cannot be checked this
// way: the pairing discards noise, so it does not reach the means.)
func replayOffline(t *tracer, profiles []*profiler.Profile) *passOut {
	out := &passOut{}
	for _, prof := range profiles {
		if prof == nil {
			continue
		}
		svc := prof.Service
		t0 := time.Now()
		contrib, err := analyzer.Analyze(prof.LoadProfile, svc.Graph)
		lls := make(map[string]float64, len(svc.Components))
		for _, c := range svc.Components {
			if ll, err := analyzer.Loadlimit(quickLevels, prof.CoV[c.Name]); err == nil {
				lls[c.Name] = ll
			}
		}
		t.analyzerUs += float64(time.Since(t0)) / 1e3
		out.attempted++
		if err != nil || !reflect.DeepEqual(contrib, prof.Contributions) || !reflect.DeepEqual(lls, prof.Loadlimits) {
			out.fail("%s: replayed analyzer differs from the profile (err %v)", svc.Name, err)
		}
		if len(svc.Graph.Paths()) > 1 {
			continue // fan-out services use built-in tracing
		}
		topo := trace.NewTopology(svc)
		for li, level := range quickLevels {
			soj := make(map[string]queueing.Sojourn, len(svc.Components))
			for _, c := range svc.Components {
				soj[c.Name] = c.Station.Solo(level * svc.MaxLoadQPS)
			}
			rate := level * svc.MaxLoadQPS
			if rate > 2000 {
				rate = 2000
			}
			if rate < 1 {
				rate = 1
			}
			out.attempted++
			t0 := time.Now()
			events, _, err := trace.Generate(topo, soj, trace.GenOptions{
				Requests: quickProfile.TraceRequests, Rate: rate, Threads: 4, Persistent: true,
				NoiseEvents: 50, Seed: quickProfile.Seed ^ uint64(li+1)*0x9e37,
			})
			t1 := time.Now()
			if err != nil {
				out.fail("%s level %g: replayed trace.Generate: %v", svc.Name, level, err)
				continue
			}
			res, err := trace.Analyze(events, topo.Pods, svc.Graph.Comp)
			t.genMs += float64(t1.Sub(t0)) / 1e6
			t.analyzeMs += float64(time.Since(t1)) / 1e6
			t.traceEvents += len(events)
			if err != nil {
				out.fail("%s level %g: replayed trace.Analyze: %v", svc.Name, level, err)
				continue
			}
			for _, c := range svc.Components {
				st, ok := res.PerPod[c.Name]
				if !ok || math.Float64bits(st.MeanPerRequest) != math.Float64bits(prof.LoadProfile.Sojourns[c.Name][li]) {
					out.fail("%s/%s level %g: replayed tracer mean differs from the profile", svc.Name, c.Name, level)
					break
				}
			}
		}
	}
	return out
}

// microBench runs one internal/benchmarks body and returns ns/op.
func microBench(fn func(*testing.B)) float64 {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// setBenchTime shortens testing.Benchmark's target run per body.
func setBenchTime(d time.Duration) {
	testing.Init()
	flag.CommandLine.Set("test.benchtime", d.String())
}

// layerMetrics reports every per-layer metric from one traced pass; a
// layer the workload does not reach reads 0. wallS is the traced pass's
// wall time.
func layerMetrics(t *tracer, wallS float64) map[string]float64 {
	s := t.sink
	m := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// profiler / trace / analyzer (offline)
	m["profiler.sweep_ms"] = median(t.spanMs("profiler.Run"))
	m["profiler.slack_ms"] = median(t.spanMs("profiler.FindSlacklimits"))
	m["profiler.slack_trials"] = float64(s.trials)
	m["profiler.slack_violation_ratio"] = ratio(float64(s.trialViolations), float64(s.trials))
	m["engine.trial_ms"] = median(s.trialMs)
	m["sim.pool_items_per_dispatch"] = ratio(float64(s.poolItems), float64(s.pools))
	m["trace.generate_ms"] = t.genMs
	m["trace.analyze_ms"] = t.analyzeMs
	m["trace.events"] = float64(t.traceEvents)
	m["analyzer.analyze_us"] = t.analyzerUs

	// engine / controller / metrics (colocate)
	m["engine.new_us"] = median(s.newUs)
	m["engine.ticks"] = float64(s.ticks)
	// Engines started with Engine.Run bracket their runs; the fleet's
	// engines advance with RunUntil inside epochs and emit no brackets,
	// so their ticks get the epochs' slice time on all jobs workers.
	m["engine.tick_us"] = ratio(float64(s.bracketNs+s.sliceNs*jobs)/1e3, float64(s.bracketTicks+s.sliceTicks))
	m["controller.decisions"] = float64(s.decisions)
	m["engine.be_ops"] = float64(s.beOps)
	// The per-pass attribution does not depend on the workload, so every
	// traced run measures it (colocate is where it should move wall_s).
	tick := microBench(benchmarks.EngineTick)
	sample := microBench(benchmarks.EngineTickSample)
	m["engine.tick_bench_us"] = tick / 1e3
	m["engine.pass.sample_us"] = sample / 1e3
	m["engine.pass.inflation_us"] = microBench(benchmarks.EngineTickInflation) / 1e3
	m["engine.pass.sojourn_us"] = microBench(benchmarks.EngineTickSojourn) / 1e3
	m["engine.pass.demand_us"] = microBench(benchmarks.EngineTickDemand) / 1e3
	m["metrics.tail_add_ns"] = microBench(benchmarks.TailTrackerAdd)
	m["engine.sample_share"] = ratio(sample, tick)

	// fleet / scheduler (fleet100)
	m["fleet.slice_ms"] = median(s.sliceMs)
	m["fleet.barrier_ms"] = median(s.barrierMs)
	m["fleet.barrier_share"] = ratio(sum(s.barrierMs), sum(s.barrierMs)+sum(s.sliceMs))
	counter := func(name string) float64 { return float64(t.bus.Counter(name).Value()) }
	m["scheduler.submitted"] = counter("rhythm_sched_submitted_total")
	m["scheduler.dispatched"] = counter("rhythm_sched_dispatched_total")
	m["scheduler.requeued"] = counter("rhythm_sched_requeued_total")
	m["scheduler.rejected"] = counter("rhythm_sched_rejected_total")
	m["engine.evictions"] = float64(s.evictions)
	m["scheduler.admit_reject_ratio"] = ratio(m["scheduler.dispatched"]-float64(s.fleetAdmits), m["scheduler.dispatched"])
	m["fleet.tick_bench_ms"] = microBench(benchmarks.FleetTick) / 1e6

	// experiments (paper-quick)
	m["experiments.busy_s"] = t.expBusy.Seconds()
	m["experiments.critical_s"] = t.expCritical.Seconds()
	m["experiments.parallel_eff"] = ratio(t.expBusy.Seconds(), wallS*jobs)
	m["profiler.cache_misses"] = float64(s.cacheMisses)
	m["profiler.cache_hits"] = float64(s.cacheHits)
	for _, c := range []string{"slack-trial", "profile", "sla", "other"} {
		m["engine.runs."+c] = float64(s.runs[c])
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
