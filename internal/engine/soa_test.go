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

// runOnce executes cfg for dur with the given tick implementation
// (ref true = the pre-SoA scalar oracle) under a fresh memory-sink bus and
// captures the outcome.
func runOnce(t *testing.T, cfg Config, dur time.Duration, ref bool) pairedOutcome {
	t.Helper()
	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st *RunStats
	if ref {
		st = runReference(e, dur)
	} else if st, err = e.Run(dur); err != nil {
		t.Fatal(err)
	}
	out := pairedOutcome{stats: st, tailN: e.tail.N(), events: sink.Events()}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		out.quantiles = append(out.quantiles, e.tail.Quantile(q))
	}
	return out
}

// runReference is Run driven by tickReference: the same obs run brackets
// around the same RunUntil loop, with the scalar tick in place of the
// passes.
func runReference(e *Engine, duration time.Duration) *RunStats {
	e.stats.Duration = duration
	end := sim.Time(0).Add(duration)
	if e.obsScope.Enabled() {
		e.obsRuns.Inc()
		e.obsScope.RunPhase(0, "start", fmt.Sprintf("service=%s policy=%s sla=%gs duration=%v seed=%d",
			e.cfg.Service.Name, e.stats.Policy, e.cfg.SLA, duration, e.cfg.Seed))
	}
	for ; e.cursor < end; e.cursor = e.cursor.Add(TickDt) {
		now := e.cursor
		e.clock.RunUntil(now)
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
	if e.obsScope.Enabled() {
		e.obsScope.RunPhase(int64(end), "end", fmt.Sprintf("worst_p99=%gs violations=%d",
			e.stats.WorstP99, e.stats.Violations))
	}
	return e.stats
}

// assertPairedEqual runs cfg through both tick implementations and
// requires bitwise-identical outcomes.
func assertPairedEqual(t *testing.T, cfg Config, dur time.Duration) {
	t.Helper()
	soa := runOnce(t, cfg, dur, false)
	ref := runOnce(t, cfg, dur, true)
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

// TestTickSoAMatchesScalar is the tentpole's differential gate: the
// chunked SoA pass sequence must be bitwise-equal to the retained scalar
// tick across randomized configurations — services, policies, load
// patterns, warmups, sample counts, self-admission vs external mode — and
// across every fault preset, whose crash/storm/slowdown/drift/dropout
// hooks exercise the sparse-edit path between passes.
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
