package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/cluster"
	"rhythm/internal/controller"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// pairedOutcome is everything observable about one run that the SoA
// rewrite must not perturb: the aggregated statistics, the tail-tracker
// window contents (probed at several quantiles plus the live count), and
// the full observability event stream.
type pairedOutcome struct {
	stats     *RunStats
	tailN     int
	quantiles []float64
	events    []obs.Event
}

// runner drives a fresh engine through a run of the given duration and
// returns its stats.
type runner func(e *Engine, duration time.Duration) *RunStats

// runBlocks is Run itself: the block-phase engine in one RunUntil sweep.
func runBlocks(t *testing.T) runner {
	return func(e *Engine, duration time.Duration) *RunStats {
		st, err := e.Run(duration)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// runSliced is Run with the sweep cut into RunUntil calls of the given
// number of ticks, so blocks also end at slice boundaries that fall
// between control ticks.
func runSliced(ticks int) runner {
	return func(e *Engine, duration time.Duration) *RunStats {
		return bracketed(e, duration, func(end sim.Time) {
			for e.cursor < end {
				e.RunUntil(min(e.cursor.Add(time.Duration(ticks)*TickDt), end))
			}
		})
	}
}

// runReference is Run driven by tickReference: one scalar tick at a time
// on the tick grid, with the control tick after each tick that reaches
// the control boundary.
func runReference(e *Engine, duration time.Duration) *RunStats {
	return bracketed(e, duration, func(end sim.Time) {
		for ; e.cursor < end; e.cursor = e.cursor.Add(TickDt) {
			now := e.cursor
			load := e.cfg.Pattern.Load(now)
			if e.cfg.Faults != nil {
				load *= e.cfg.Faults.LoadMul(now)
			}
			e.tickReference(now, load)
			if now >= e.nextControl {
				e.controlTick(now, load)
				e.nextControl = e.nextControl.Add(e.cfg.ControlPeriod)
			}
		}
	})
}

// bracketed wraps advance, which must bring the engine to the end of the
// run, in Run's stats bookkeeping and obs run brackets.
func bracketed(e *Engine, duration time.Duration, advance func(end sim.Time)) *RunStats {
	e.stats.Duration = duration
	end := sim.Time(0).Add(duration)
	if e.obsScope.Enabled() {
		e.obsRuns.Inc()
		e.obsScope.RunPhase(0, "start", fmt.Sprintf("service=%s policy=%s sla=%gs duration=%v seed=%d",
			e.cfg.Service.Name, e.stats.Policy, e.cfg.SLA, duration, e.cfg.Seed))
	}
	advance(end)
	if e.obsScope.Enabled() {
		e.obsScope.RunPhase(int64(end), "end", fmt.Sprintf("worst_p99=%gs violations=%d",
			e.stats.WorstP99, e.stats.Violations))
	}
	return e.stats
}

// runOnce executes cfg for dur through run under a fresh memory-sink bus
// and captures the outcome.
func runOnce(t *testing.T, cfg Config, dur time.Duration, run runner) pairedOutcome {
	t.Helper()
	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run(e, dur)
	out := pairedOutcome{stats: st, tailN: e.tail.N(), events: sink.Events()}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		out.quantiles = append(out.quantiles, e.tail.Quantile(q))
	}
	return out
}

// assertPairedEqual runs cfg through the block-phase engine (Run) and the
// scalar reference and requires bitwise-identical outcomes.
func assertPairedEqual(t *testing.T, cfg Config, dur time.Duration) {
	t.Helper()
	assertRunnerMatches(t, cfg, dur, runBlocks(t))
}

// assertRunnerMatches runs cfg through run and through the scalar
// reference and requires bitwise-identical outcomes.
func assertRunnerMatches(t *testing.T, cfg Config, dur time.Duration, run runner) {
	t.Helper()
	soa := runOnce(t, cfg, dur, run)
	ref := runOnce(t, cfg, dur, runReference)
	if !reflect.DeepEqual(soa.stats, ref.stats) {
		t.Errorf("RunStats diverged:\nsoa: worstP99=%v meanP99=%v viol=%d kills=%d\nref: worstP99=%v meanP99=%v viol=%d kills=%d",
			soa.stats.WorstP99, soa.stats.MeanP99, soa.stats.Violations, soa.stats.TotalKills(),
			ref.stats.WorstP99, ref.stats.MeanP99, ref.stats.Violations, ref.stats.TotalKills())
	}
	if soa.tailN != ref.tailN {
		t.Errorf("tail window N = %d soa, %d ref", soa.tailN, ref.tailN)
	}
	if !reflect.DeepEqual(soa.quantiles, ref.quantiles) {
		t.Errorf("tail quantiles diverged:\nsoa: %v\nref: %v", soa.quantiles, ref.quantiles)
	}
	if len(soa.events) != len(ref.events) {
		t.Errorf("obs event count = %d soa, %d ref", len(soa.events), len(ref.events))
		return
	}
	for i := range soa.events {
		if !eventsBitEqual(soa.events[i], ref.events[i]) {
			t.Errorf("obs event %d diverged:\nsoa: %+v\nref: %+v", i, soa.events[i], ref.events[i])
			break
		}
	}
}

// eventsBitEqual compares two obs events with float fields compared by
// bit pattern: measurement-dropout decisions legitimately carry NaN slack
// and p99, which reflect.DeepEqual would call unequal even when both
// streams hold the identical bits.
func eventsBitEqual(a, b obs.Event) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && a.At == b.At && a.Dur == b.Dur &&
		a.Scope == b.Scope && a.Pod == b.Pod && a.Op == b.Op && a.ID == b.ID &&
		a.Reason == b.Reason && a.N == b.N && a.M == b.M &&
		math.Float64bits(a.Load) == math.Float64bits(b.Load) &&
		math.Float64bits(a.Slack) == math.Float64bits(b.Slack) &&
		math.Float64bits(a.P99) == math.Float64bits(b.P99) &&
		math.Float64bits(a.QPS) == math.Float64bits(b.QPS)
}

// TestTickSoAMatchesScalar is the SoA engine's differential gate: the
// block-phase pass sequence must be bitwise-equal to the retained scalar
// tick across randomized configurations — services, policies, load
// patterns, warmups, sample counts, self-admission vs external mode —
// across rows whose block boundaries matter (loads that move every tick,
// a control period off the 2 s grid, RunUntil slices that cut blocks
// between control ticks), and across every fault preset, whose
// crash/storm/slowdown/drift/dropout hooks exercise the sparse-edit path
// between passes.
func TestTickSoAMatchesScalar(t *testing.T) {
	rng := sim.NewRNG(2020).Fork("soa-differential")
	services := []func() *workload.Service{workload.Redis, workload.ECommerce}
	beMixes := [][]bejobs.Type{
		{bejobs.CPUStress},
		{bejobs.Wordcount, bejobs.StreamDRAM},
		{bejobs.CPUStress, bejobs.Wordcount, bejobs.ImageClassify},
	}
	for trial := 0; trial < 6; trial++ {
		cfg := Config{
			Service: services[rng.Intn(len(services))](),
			SLA:     0.25,
			Policy:  controller.NewHeracles(),
			BETypes: beMixes[rng.Intn(len(beMixes))],
			Seed:    rng.Uint64(),
		}
		if rng.Float64() < 0.5 {
			cfg.Pattern = loadgen.Constant(0.2 + 0.6*rng.Float64())
		} else {
			p, err := loadgen.NewDiurnal(10*time.Second, 0.3, 0.8, 0.05, rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pattern = p
		}
		if rng.Float64() < 0.5 {
			cfg.Warmup = time.Duration(1+rng.Intn(5)) * time.Second
		}
		if rng.Float64() < 0.3 {
			cfg.CollectSamples = true
		}
		t.Run(fmt.Sprintf("random-%d-%s", trial, cfg.Service.Name), func(t *testing.T) {
			assertPairedEqual(t, cfg, 15*time.Second)
		})
	}

	// Block boundaries: every row runs with BE under Heracles, so BE
	// allocations move at each control tick and the operating points of
	// each block differ from the previous block's.
	colo := func(pattern loadgen.Pattern) Config {
		return Config{
			Service: workload.ECommerce(),
			Pattern: pattern,
			SLA:     0.25,
			Policy:  controller.NewHeracles(),
			BETypes: []bejobs.Type{bejobs.Wordcount, bejobs.StreamLLC},
			Seed:    2020,
			Warmup:  2 * time.Second,
		}
	}
	// Algorithm 1's trial shape (FindSlacklimits): tl/2 -> tl -> tl, the
	// load moving on every tick of the ramp and flat after it.
	ramp := loadgen.Replay{Samples: []float64{0.35, 0.7, 0.7}, Spacing: 6 * time.Second}
	diurnal, err := loadgen.NewDiurnal(12*time.Second, 0.3, 0.85, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("trial-ramp", func(t *testing.T) { assertPairedEqual(t, colo(ramp), 20*time.Second) })
	t.Run("diurnal", func(t *testing.T) { assertPairedEqual(t, colo(diurnal), 20*time.Second) })
	t.Run("period-1.35s", func(t *testing.T) {
		cfg := colo(ramp)
		cfg.ControlPeriod = 1350 * time.Millisecond
		assertPairedEqual(t, cfg, 20*time.Second)
	})
	t.Run("period-4.5s", func(t *testing.T) {
		// Longer than maxBlock ticks: the period spans several blocks.
		cfg := colo(diurnal)
		cfg.ControlPeriod = 4500 * time.Millisecond
		assertPairedEqual(t, cfg, 20*time.Second)
	})
	t.Run("sweep-solo", func(t *testing.T) {
		// A profiling sweep's shape with no BE: the sojourn cache hits on
		// every tick but the first of each level, and the levels change
		// mid-block, so a block's hits must read the distribution of their
		// own tick, not one a previous block left in the same row.
		assertPairedEqual(t, Config{
			Service: workload.ECommerce(),
			Pattern: loadgen.Step{Levels: []float64{0.3, 0.6, 0.45, 0.8}, Dwell: 3 * time.Second},
			Seed:    2020,
		}, 14*time.Second)
	})
	t.Run("sliced-7-ticks", func(t *testing.T) {
		assertRunnerMatches(t, colo(ramp), 20*time.Second, runSliced(7))
	})

	// Fault presets on the Rhythm policy over the full E-commerce graph:
	// the sparse fault edits (crash kills marking rows dirty, storm and
	// cap scratch, drift skews, dropout-degraded control) must leave both
	// implementations in identical states.
	for _, preset := range []string{"surges", "storm", "chaos"} {
		t.Run("preset-"+preset, func(t *testing.T) {
			sched, err := faults.Preset(preset, 2020, 40*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			assertPairedEqual(t, faultCfg(t, sched), 40*time.Second)
		})
	}
	t.Run("explicit-fault-mix", func(t *testing.T) {
		sched := &faults.Schedule{Events: []faults.Event{
			{Kind: faults.LoadSurge, At: 6 * time.Second, Duration: 8 * time.Second, Magnitude: 1.6},
			{Kind: faults.InterferenceStorm, Pod: "MySQL", At: 8 * time.Second, Duration: 10 * time.Second, Magnitude: 2.0},
			{Kind: faults.MachineSlowdown, Pod: "Web", At: 10 * time.Second, Duration: 10 * time.Second, FreqGHz: 1.4},
			{Kind: faults.BECrash, Pod: "Memcache", At: 12 * time.Second, RestartDelay: 6 * time.Second},
			{Kind: faults.ProfileDrift, Pod: "Amoeba", At: 5 * time.Second, Duration: 20 * time.Second, MuSkew: 1.3, SigmaSkew: 1.2},
		}}
		if err := sched.Validate(); err != nil {
			t.Fatal(err)
		}
		assertPairedEqual(t, faultCfg(t, sched), 35*time.Second)
	})
}

// TestStepMatchesReferenceTick holds Step, a block of one tick, to one
// scalar reference tick: two engines warmed identically with BE running
// take the same ticks at loads that repeat, move and return, and must
// agree in their stats, tail window and operating-point rows after each.
func TestStepMatchesReferenceTick(t *testing.T) {
	cfg := Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(0.6),
		SLA:     0.25,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.StreamLLC},
		Seed:    2020,
	}
	var engines [2]*Engine
	for i := range engines {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.RunUntil(sim.FromSeconds(10))
		engines[i] = e
	}
	blk, ref := engines[0], engines[1]
	now := blk.Now()
	for i, load := range []float64{0.6, 0.6, 0.75, math.Nextafter(0.75, 1), 0.6, 0.6} {
		blk.Step(now, load)
		ref.tickReference(now, load)
		now = now.Add(TickDt)
		if !reflect.DeepEqual(blk.stats, ref.stats) {
			t.Fatalf("step %d: RunStats diverged", i)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if a, b := blk.tail.Quantile(q), ref.tail.Quantile(q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: tail q%v = %v, reference %v", i, q, a, b)
			}
		}
		for _, row := range []struct {
			name     string
			got, ref []float64
		}{
			{"inflate", blk.soa.inflate, ref.soa.inflate},
			{"cvInfl", blk.soa.cvInfl, ref.soa.cvInfl},
			{"sjMu", blk.soa.sjMu, ref.soa.sjMu},
			{"sjSigma", blk.soa.sjSigma, ref.soa.sjSigma},
		} {
			if !reflect.DeepEqual(row.got, row.ref) {
				t.Fatalf("step %d: %s = %v, reference %v", i, row.name, row.got, row.ref)
			}
		}
	}
}

// TestEvalColsMatchesLatency holds the column-wise combine to the
// per-draw Node.Latency walk on random call graphs — chains and parallel
// fan-outs of up to four children, nested four deep, the shapes scenario
// specs allow beyond the built-in services' single-child chains — over
// draw matrices that mix in ±0, ±Inf and NaN. With two or more children
// the chain's left-to-right association and the parallel max's strict >
// both show in the bits.
func TestEvalColsMatchesLatency(t *testing.T) {
	r := sim.NewRNG(2020).Fork("evalcols")
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	var build func(depth int, plan *samplePlan) *workload.Node
	stages := 0
	build = func(depth int, plan *samplePlan) *workload.Node {
		plan.stage = stages
		plan.parallel = r.Float64() < 0.4
		node := &workload.Node{Comp: fmt.Sprint(stages), Parallel: plan.parallel}
		stages++
		if depth > 1 && r.Float64() < 0.8 {
			for c := 1 + r.Intn(4); c > 0; c-- {
				ch := &samplePlan{}
				node.Children = append(node.Children, build(depth-1, ch))
				plan.children = append(plan.children, ch)
			}
		}
		return node
	}
	for trial := 0; trial < 200; trial++ {
		stages = 0
		plan := &samplePlan{}
		graph := build(1+r.Intn(4), plan)
		draws := 1 + r.Intn(100)
		vals := make([]float64, draws*stages)
		for i := range vals {
			vals[i] = math.Exp(-6 + 4*r.Float64())
			if r.Float64() < 0.02 {
				vals[i] = special[r.Intn(len(special))]
			}
		}
		cols := make([][]float64, 2*(plan.depth()-1))
		for i := range cols {
			cols[i] = make([]float64, draws)
		}
		got := make([]float64, draws)
		plan.evalCols(got, vals, stages, cols)
		for d := range got {
			want := graph.Latency(func(c string) float64 {
				var stage int
				fmt.Sscan(c, &stage)
				return vals[d*stages+stage]
			})
			if math.Float64bits(got[d]) != math.Float64bits(want) {
				t.Fatalf("trial %d draw %d: evalCols %v, Latency %v", trial, d, got[d], want)
			}
		}
	}
}

// TestRunUntilChunkingUnchanged re-verifies the chunked-run bitwise
// contract on the SoA core with faults active: a whole Run and unevenly
// sliced RunUntil sweeps must agree exactly, dirty rows and fault scratch
// included. TestRunUntilMatchesRun covers the fault-free path; this case
// makes sure per-epoch re-entry never skips or repeats a pass.
func TestRunUntilChunkingUnchanged(t *testing.T) {
	sched, err := faults.Preset("chaos", 7, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultCfg(t, sched)
	whole := func() *RunStats {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	sliced := func() *RunStats {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Deliberately uneven slice boundaries, including ones that do
		// not align with the control period.
		for _, at := range []float64{1.5, 2, 6.3, 12, 12.1, 20, 29.9, 30} {
			e.RunUntil(sim.FromSeconds(at))
		}
		return e.stats
	}()
	sliced.Duration = whole.Duration // Run-only bookkeeping, set by the caller
	if !reflect.DeepEqual(whole, sliced) {
		t.Fatalf("sliced SoA run diverged from whole run:\nwhole:  %+v\nsliced: %+v", whole, sliced)
	}
}

// TestEvictionInvalidatesInstCache pins the instCache coherence contract:
// the BE-progress pass reads cached allocation pointers, so any eviction
// must mark the row dirty and the next tick must rebuild the cache from
// the post-eviction ledger.
func TestEvictionInvalidatesInstCache(t *testing.T) {
	e := newExternalEngine(t, true)
	p := e.pods[0]
	if !e.AdmitBE(p.comp.Name, bejobs.Wordcount, "be-1") {
		t.Fatal("admission onto an empty machine should succeed")
	}
	if !e.soa.beDirty[p.idx] {
		t.Fatal("AdmitBE did not mark the SoA row dirty")
	}
	now := sim.Time(0)
	step := func() {
		now = now.Add(TickDt)
		e.Step(now, 0.3)
	}
	step()
	if e.soa.beDirty[p.idx] {
		t.Fatal("tick did not clear the dirty flag")
	}
	if len(p.instCache) != 1 || p.instCache[0].in.ID != "be-1" {
		t.Fatalf("instCache = %+v, want the admitted be-1", p.instCache)
	}
	owner := cluster.Owner{Kind: cluster.OwnerBE, Name: "be-1"}
	if p.instCache[0].alloc != p.machine.Alloc(owner) {
		t.Fatal("cached alloc pointer does not match the live ledger entry")
	}

	// Evict via the control path; the cache must be rebuilt empty before
	// the next BE-progress pass reads it.
	e.apply(p, controller.StopBE, now, 0.3, -0.1)
	if !e.soa.beDirty[p.idx] {
		t.Fatal("eviction did not mark the SoA row dirty")
	}
	step()
	if len(p.instCache) != 0 {
		t.Fatalf("instCache not rebuilt after eviction: %+v", p.instCache)
	}
	if e.soa.beCores[p.idx] != 0 {
		t.Fatalf("beCores = %d after eviction, want 0", e.soa.beCores[p.idx])
	}
	if got := e.soa.beDemand[p.idx]; got != (cluster.Vector{}) {
		t.Fatalf("beDemand = %v after eviction, want zero", got)
	}
	if len(e.TakeEvicted()) != 1 {
		t.Fatal("eviction not surfaced to TakeEvicted")
	}
}
