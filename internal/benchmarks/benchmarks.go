// Package benchmarks hosts the measurement hot-path micro benchmarks shared
// by `go test -bench` (benchmarks_test.go) and the `make bench` harness
// (cmd/rhythm-bench), which runs them through testing.Benchmark and emits
// BENCH_engine.json. Keeping the benchmark bodies in a plain (non-test)
// package is what lets one definition serve both entry points.
//
// The benchmarks cover the per-sample unit economics of the measurement
// pipeline:
//
//   - TailTrackerAdd / TailTrackerAddP99: sliding-window insert+evict cost
//     at one sample per timestamp, alone and interleaved with a p99 query
//     per sample (the worst case for the tracker: every query sees a new
//     window and the batch-max bound cannot filter).
//   - TailTrackerWindowP99: the engine's tracker traffic, one
//     engine.SamplesPerTick batch per tick with a p99 read every second
//     and a control read every 2 s.
//   - EngineTick: one full engine tick — sojourn modeling, utilization
//     accounting, SamplesPerTick end-to-end latency draws through the call
//     graph, tail-tracker maintenance — with per-pass rows
//     (EngineTickDemand/Inflation/Sojourn/Sample). Its fixture runs no BE,
//     so its inflation and sojourn rows time cache hits.
//   - EngineTickColo: the same tick over a co-located fixture (BE running
//     under Heracles, controllers on), where the inflation EMA moves every
//     tick as in the colocate grid, with its own inflation, sojourn
//     (cache-miss path) and sample rows. One RunUntil call per tick makes
//     every block one tick long.
//   - EngineControlPeriodColo: one control period of that fixture per op
//     through one RunUntil call, so its ticks run as one block: the
//     operating points computed together and the sojourn misses resolved
//     in one batch per pod, as the experiments run them.
//   - EngineControlPeriodRamp: one control period of that fixture under
//     a repeating Algorithm 1 trial ramp, so the load moves every tick and
//     every tick of the block misses the sojourn cache: the batched
//     Erlang-B, Pow and lognormal-fit kernels at a block's full width.
//   - StationAtLanes8/64/172: one 20-lane Station.AtLanes call at 8, 64
//     and 172 workers, the sojourn fit alone.
//   - FleetTick: one fleet epoch over a 100-machine fleet — the parallel
//     per-machine slices plus the serial scheduler barrier — reported
//     both as ns/op and as a machines/s throughput metric (the
//     datacenter-scale gate).
//   - SampleKernel: one 512-element LognormalDraws chunk, the batch the
//     engine's sample pass and the end-to-end p99 estimator are built from,
//     with "vector", "uniform" and "fused" metrics that are 1 when vector
//     kernels, the AVX-512 uniform kernel and the fused AVX-512 kernel
//     ran.
//   - SampleFilter: the lazy sampling pass's sampler over that chunk, at
//     a cutoff the engine's are near, with the share of rows it computed
//     ("kept") and a "filter" metric that is 1 when the AVX-512
//     certificate kernel ran.
//   - UniformKernel: that chunk's first pass alone, its 512 Box-Muller
//     uniform pairs, with the "uniform" metric.
//   - FindSlacklimits: Algorithm 1's whole search for one service
//     (E-commerce, profiled once at the quick options `run all -quick
//     -seed 2020` uses) at jobs=1, every trial an engine run that stops
//     at its verdict.
//   - ObsDisabled: every observability emit point with no bus installed —
//     the nil-check path the engine hot loop pays on untraced runs, pinned
//     at 0 allocs/op (TestObsDisabledZeroAllocs).
package benchmarks

import (
	"math"
	"sync"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/metrics"
	"rhythm/internal/obs"
	"rhythm/internal/profiler"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// benchLive is the engine tracker's steady-state occupancy
// (engine.TailWindow / engine.TickDt ticks of engine.SamplesPerTick
// samples, 2400); one sample per benchSpacing keeps the same number live.
const (
	benchLive    = int(engine.TailWindow/engine.TickDt) * engine.SamplesPerTick
	benchSpacing = engine.TailWindow / time.Duration(benchLive)
)

// TailTrackerAdd measures the pure insert+evict path at steady-state
// occupancy (benchLive samples), with no quantile queries.
func TailTrackerAdd(b *testing.B) {
	tt := metrics.NewTailTracker(engine.TailWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-add")
	now := sim.Time(0)
	// Fill to steady state so every measured Add also evicts.
	for i := 0; i < benchLive; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
}

// TailTrackerAddP99 interleaves one Add with one P99 query, the worst-case
// pattern for a copy-and-sort tracker: every query pays the full window.
func TailTrackerAddP99(b *testing.B) {
	tt := metrics.NewTailTracker(engine.TailWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-p99")
	now := sim.Time(0)
	for i := 0; i < benchLive; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
		sink = tt.P99()
	}
	_ = sink
}

// TailTrackerWindowP99 replays the engine's tracker traffic: one
// engine.SamplesPerTick AddBatch per engine.TickDt tick into the
// engine.TailWindow window, a P99 read once
// per simulated second (finishTick's ObserveWindow) and a second read
// every 2 s with no add in between (the control tick). One op is one
// tick. The values cycle through a pre-drawn pool so the RNG stays out of
// the timing.
func TailTrackerWindowP99(b *testing.B) {
	const (
		perTick  = engine.SamplesPerTick
		poolTick = 64
	)
	tt := metrics.NewTailTracker(engine.TailWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-window")
	pool := make([]float64, poolTick*perTick)
	for i := range pool {
		pool[i] = rng.Float64()
	}
	now := sim.Time(0)
	var sink float64
	step := func(i int) {
		now = now.Add(engine.TickDt)
		j := i % poolTick * perTick
		tt.AddBatch(now, pool[j:j+perTick])
		if i%10 == 0 {
			sink = tt.P99()
			if i%20 == 0 {
				sink = tt.P99()
			}
		}
	}
	// Fill the window before the timer.
	for i := 0; i < 40; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(40 + i)
	}
	_ = sink
}

// soloEngine builds the EngineTick fixture: the E-commerce service alone
// at a constant 70% load, seed 2020, warmed past the inertia transient so
// the measured ticks are steady state, like the bulk of every experiment
// run. With no BE the inflation and sojourn keys stop moving, so the
// fixture's inflation and sojourn rows time cache hits.
func soloEngine(b testing.TB) engineFixture {
	const load = 0.7
	e, err := engine.New(engine.Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(load),
		Seed:    2020,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := engineFixture{e: e, load: load}
	for i := 0; i < 100; i++ {
		f.now = f.now.Add(engine.TickDt)
		e.Step(f.now, load)
	}
	return f
}

// colocatedEngine builds the co-located fixture the colocate grid
// (Figs. 9–14) runs in: the E-commerce service at a constant 65% load
// sharing its machines with stream-llc BE jobs under Heracles, against
// a 0.5 s SLA (the quick deploy derives 0.495 s), seed 2020, run 30 s
// with its controllers so the BE instances are running and every control
// period moves their allocations. The inertia EMA then moves every tick,
// and the sojourn cache misses as it does on 87% of the grid's calls.
func colocatedEngine(b testing.TB) engineFixture {
	const load = 0.65
	e, err := engine.New(engine.Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(load),
		SLA:     0.5,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.StreamLLC},
		Seed:    2020,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.RunUntil(sim.Time(0).Add(30 * time.Second))
	return engineFixture{e: e, now: e.Now(), load: load}
}

// engineFixture is a warmed engine, its clock and its constant load.
type engineFixture struct {
	e    *engine.Engine
	now  sim.Time
	load float64
}

// enginePass runs one named SoA pass in isolation over a warmed fixture;
// together the passes bound where a tick regression lives before anyone
// reaches for a profiler. Time advances one tick per iteration so the
// sample pass's tail trackers evict at steady-state occupancy instead of
// growing without bound. load(i) is iteration i's load.
func enginePass(b *testing.B, f engineFixture, name string, load func(i int) float64) {
	if !f.e.RunPass(name, f.now, load(0)) {
		b.Fatalf("unknown engine pass %q", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.now = f.now.Add(engine.TickDt)
		f.e.RunPass(name, f.now, load(i))
	}
}

// constantPass runs enginePass at the fixture's own load.
func constantPass(b *testing.B, f engineFixture, name string) {
	enginePass(b, f, name, func(int) float64 { return f.load })
}

// EngineTick measures one engine tick of the E-commerce service at a
// constant 70% load: the per-tick sojourn/utilization pass over every pod
// plus SamplesPerTick end-to-end latency samples through the call graph.
func EngineTick(b *testing.B) {
	f := soloEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.now = f.now.Add(engine.TickDt)
		f.e.Step(f.now, f.load)
	}
}

// EngineTickDemand measures the demand gather plus dirty BE re-sync pass.
func EngineTickDemand(b *testing.B) { constantPass(b, soloEngine(b), "demand") }

// EngineTickInflation measures the pressure map and inertia-smoothed
// inflation pass.
func EngineTickInflation(b *testing.B) { constantPass(b, soloEngine(b), "inflation") }

// EngineTickSojourn measures the sojourn-cache pass; at constant load the
// key never changes, so this is the steady-state (cache-hit) cost.
func EngineTickSojourn(b *testing.B) { constantPass(b, soloEngine(b), "sojourn") }

// EngineTickSample measures the sampling pass: the SamplesPerTick×stages
// lognormal draw matrix, the plan combine, and the tail bulk insert —
// the dominant share of EngineTick.
func EngineTickSample(b *testing.B) { constantPass(b, soloEngine(b), "sample") }

// EngineTickColo is EngineTick over the co-located fixture through
// Engine.RunUntil: every pass with BE running, the controllers acting
// every 2 s, and the caches missing as they do in the colocate grid. Each
// RunUntil call advances one tick, so every block is one tick long and
// each sojourn miss runs its Erlang-B recursion alone;
// EngineControlPeriodColo runs the same fixture a control period per
// call.
func EngineTickColo(b *testing.B) {
	f := colocatedEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.e.RunUntil(f.e.Now().Add(engine.TickDt))
	}
}

// EngineControlPeriodColo advances the co-located fixture one 2 s control
// period per op through one Engine.RunUntil call, as the experiments run
// it: the period's ticks form one block, whose operating points are
// computed together and whose sojourn misses resolve in one
// Station.AtLanes batch per pod, followed by the control tick.
func EngineControlPeriodColo(b *testing.B) {
	const period = 2 * time.Second
	f := colocatedEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.e.RunUntil(f.e.Now().Add(period))
	}
}

// trialRamp is the load an Algorithm 1 trial drives, repeated without
// end: a linear rise from half the probe load to the probe load over
// rise, then back down, so the load moves on every tick as it does on a
// trial's flank.
type trialRamp struct {
	probe float64
	rise  time.Duration
}

// Load returns the ramp's load at time t.
func (r trialRamp) Load(t sim.Time) float64 {
	pos := math.Mod(t.Seconds()/r.rise.Seconds(), 2)
	if pos > 1 {
		pos = 2 - pos
	}
	return r.probe/2 + r.probe/2*pos
}

// EngineControlPeriodRamp is EngineControlPeriodColo under a moving load:
// the co-located fixture's engine driven by a repeating trial ramp
// between 35% and 70% load (30 s each way), one 2 s control period per
// op. Every tick's load moves, so every tick of the period's block misses
// the sojourn cache and moves the pressure: each pod resolves 20 sojourn
// lanes in one Station.AtLanes call, and the block's moved pressures are
// raised in one batch — the block phase as Algorithm 1's trials and the
// production traces run it.
func EngineControlPeriodRamp(b *testing.B) {
	const period = 2 * time.Second
	e, err := engine.New(engine.Config{
		Service: workload.ECommerce(),
		Pattern: trialRamp{probe: 0.7, rise: 30 * time.Second},
		SLA:     0.5,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.StreamLLC},
		Seed:    2020,
	})
	if err != nil {
		b.Fatal(err)
	}
	e.RunUntil(sim.Time(0).Add(30 * time.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(period))
	}
}

// StationAtLanes returns the benchmark of one queueing.Station.AtLanes
// call over 20 lanes — about the lanes a pod resolves per block on the
// paper's workloads — at c workers: loads spread from 30% to 96% of the
// station's rate and inflation from 1 to 1.4, so no two lanes share an
// operating point. c = 8, 64 and 172 (SNMS UserService) span the
// catalog; at small c the lognormal fit dominates the Erlang-B recursion.
func StationAtLanes(c int) func(*testing.B) {
	return func(b *testing.B) {
		const lanes = 20
		st := queueing.Station{BaseService: 0.004, BaseCV: 0.5, Workers: c, LoadCVGrowth: 1.2}
		lambda, inflate, cvInflate := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
		for j := range lambda {
			f := float64(j) / (lanes - 1)
			lambda[j] = (0.3 + 0.66*f) * st.MaxRate()
			inflate[j], cvInflate[j] = 1+0.4*f, 1+0.2*f
		}
		dst := make([]queueing.Sojourn, lanes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.AtLanes(dst, lambda, inflate, cvInflate, 1)
		}
	}
}

// EngineTickColoInflation measures the pressure map and inflation pass
// with BE demand in the pressure. Its target cache hits, as on 96% of the
// colocate grid's calls (BE allocations change only at control periods);
// the inertia EMA update runs on every call.
func EngineTickColoInflation(b *testing.B) { constantPass(b, colocatedEngine(b), "inflation") }

// EngineTickColoSojourn measures the sojourn pass on its miss path, which
// the colocate grid takes on 87% of calls: every call refreshes every
// pod's sojourn distribution (Station.At, Erlang C) at the co-located
// inflation. The load alternates between two neighbouring floats so each
// call sees a new cache key.
func EngineTickColoSojourn(b *testing.B) {
	f := colocatedEngine(b)
	next := math.Nextafter(f.load, 1)
	enginePass(b, f, "sojourn", func(i int) float64 {
		if i%2 == 1 {
			return next
		}
		return f.load
	})
}

// EngineTickColoSample measures the sampling pass over the co-located
// fixture's (BE-inflated) sojourn distributions.
func EngineTickColoSample(b *testing.B) { constantPass(b, colocatedEngine(b), "sample") }

// FleetTick measures one epoch of a 100-machine fleet (25 E-commerce
// replicas under the uniform Heracles policy, constant 60% load): 100
// engines advancing one 2 s control period each plus the shared-queue
// barrier (evictions, dispatch, admissions). Throughput is additionally
// reported as machines/s — machine-epochs advanced per wall second — the
// ROADMAP item 1 scale gate.
func FleetTick(b *testing.B) {
	entries := []fleet.Entry{{
		Service:  workload.ECommerce(),
		Replicas: 25, // 4 components each: 100 machines
		Policy:   controller.NewHeracles(),
	}}
	f, err := fleet.New(fleet.Config{
		Entries:  entries,
		Pattern:  loadgen.Constant(0.6),
		Duration: time.Hour, // nominal; the benchmark drives Step directly
		Seed:     2020,
		Jobs:     1, // single worker: measure the work, not the pool
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the engines' inertia transient.
	for i := 0; i < 5; i++ {
		f.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
	b.ReportMetric(float64(f.Machines()*b.N)/b.Elapsed().Seconds(), "machines/s")
}

// SampleKernel measures sim.LognormalDraws over one 512-element chunk
// (128 draws of a four-stage path) at the kernel tier the host dispatches
// to. Three 0/1 metrics say which kernels ran: "vector" when the work after
// the uniforms ran four- or eight-lane kernels (the AVX2 passes or the
// fused kernel), "uniform" when the uniforms came from the AVX-512 kernel,
// and "fused" when the fused AVX-512 kernel turned them into lognormal
// values. 0 means the scalar fallback, so a host or build that silently
// lost a kernel shows in the report (`go test -bench
// 'SampleKernel|UniformKernel' ./internal/sim` times every tier side by
// side).
func SampleKernel(b *testing.B) {
	mu := []float64{-5.2, -4.1, -6, -4.8}
	sigma := []float64{0.3, 0.5, 0.2, 0.4}
	dst := make([]float64, 512)
	rng := sim.NewRNG(2020).Fork("bench-sample-kernel")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.LognormalDraws(dst, mu, sigma, rng)
	}
	tier := sim.KernelTier()
	b.ReportMetric(ran(tier >= sim.TierAVX2), "vector")
	b.ReportMetric(ran(tier >= sim.TierAVX512), "uniform")
	b.ReportMetric(ran(tier >= sim.TierAVX512), "fused")
}

// SampleFilter measures the lazy sampling pass's sampler over
// SampleKernel's chunk: sim.Sampler.DrawsBetween from a cutoff of 2 (the
// engine's cutoffs fall between about 1.5 and 2.5), which draws every
// uniform pair, certifies the rows whose normals are all at most the
// cutoff and computes only the others. Its "kept" metric is the share of
// rows computed, and "filter" is 1 when the AVX-512 certificate kernel
// ran, 0 on the scalar loop.
func SampleFilter(b *testing.B) {
	mu := []float64{-5.2, -4.1, -6, -4.8}
	sigma := []float64{0.3, 0.5, 0.2, 0.4}
	dst := make([]float64, 512)
	rng := sim.NewRNG(2020).Fork("bench-sample-kernel")
	var sm sim.Sampler
	kept := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept += sm.DrawsBetween(dst, mu, sigma, 2, math.Inf(1), rng)
	}
	b.ReportMetric(float64(kept)/float64(b.N*len(dst)/len(mu)), "kept")
	b.ReportMetric(ran(sim.KernelTier() >= sim.TierAVX512), "filter")
}

// UniformKernel measures the samplers' first pass over one chunk:
// sim.BoxMullerUniforms filling 512 uniform pairs. Its "uniform" metric is
// 1 when the AVX-512 kernel ran and 0 on the scalar loop.
func UniformKernel(b *testing.B) {
	u1 := make([]float64, 512)
	u2 := make([]float64, 512)
	rng := sim.NewRNG(2020).Fork("bench-uniform-kernel")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.BoxMullerUniforms(u1, u2, rng)
	}
	b.ReportMetric(ran(sim.KernelTier() >= sim.TierAVX512), "uniform")
}

// ran reports a kernel dispatch as a 0/1 benchmark metric.
func ran(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

// slackProfile is the FindSlacklimits row's profile, made once per
// process: testing.Benchmark calls the body once per b.N it tries.
var slackProfile = sync.OnceValues(func() (*profiler.Profile, error) {
	return profiler.Run(workload.ECommerce(), profiler.Options{
		Levels:        []float64{0.1, 0.3, 0.5, 0.65, 0.75, 0.85, 0.93},
		LevelDuration: 5 * time.Second,
		UseTracer:     true,
		TraceRequests: 300,
		Seed:          2020,
	})
})

// FindSlacklimits measures one Algorithm 1 search (the offline phase's
// largest cost) on one worker, so the row times the trials themselves,
// not their fan-out.
func FindSlacklimits(b *testing.B) {
	prof, err := slackProfile()
	if err != nil {
		b.Fatal(err)
	}
	opts := profiler.SlackOptions{StepDuration: 80 * time.Second, Seed: 2021, Jobs: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.FindSlacklimits(prof, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ObsDisabled measures the full set of observability emit points with no
// bus installed: the Active() load, a zero Scope's event emitters, and
// nil counter/gauge/histogram updates — everything an instrumented hot
// path executes per tick when tracing is off. The contract (pinned by
// TestObsDisabledZeroAllocs and recorded by `make bench`) is 0 allocs/op:
// an untraced run must not pay for the instrumentation's existence.
func ObsDisabled(b *testing.B) {
	obs.Uninstall()
	sc := obs.Active().Scope("bench")
	var (
		c *obs.Counter
		g *obs.Gauge
		h *obs.Histogram
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if obs.Active() != nil {
			b.Fatal("bus installed during disabled-path benchmark")
		}
		sc.Tick(int64(i), int64(engine.TickDt), 0.7, 700, engine.SamplesPerTick)
		sc.Decision(int64(i), "pod", "AllowBEGrowth", 0.7, 0.2, 0.01, "")
		sc.BE(int64(i), "pod", "be-1", "grow", 2, 4)
		sc.Cache("profile", "key", true)
		sc.Pool(16, 8)
		c.Inc()
		g.Add(1)
		h.Observe(0.5)
	}
}
