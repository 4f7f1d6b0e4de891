package engine

import (
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/cluster"
	"rhythm/internal/controller"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// newApplyFixture builds an engine with an installed memory-sink bus and
// two seeded BE instances on the first pod (each holding the §3.5.2
// minimal slice: one core, one LLC step). The caller must Uninstall via
// the returned cleanup (registered on t).
func newApplyFixture(t *testing.T) (*Engine, *podRuntime, *obs.MemorySink) {
	t.Helper()
	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	t.Cleanup(obs.Uninstall)
	e, err := New(Config{
		Service: workload.Redis(),
		Pattern: loadgen.Constant(0.3),
		SLA:     0.00115,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := e.pods[0]
	e.launch(p, 0)
	e.launch(p, 0)
	if len(p.instances) != 2 {
		t.Fatalf("seeded %d instances, want 2", len(p.instances))
	}
	sink.Reset()
	return e, p, sink
}

// beOpsOf filters the BE lifecycle ops out of a captured event stream, in
// publication order.
func beOpsOf(evs []obs.Event) []string {
	var ops []string
	for _, ev := range evs {
		if ev.Kind == obs.KindBE {
			ops = append(ops, ev.Op)
		}
	}
	return ops
}

// TestApplyActions is the table over every top-controller action crossed
// with the pod's BE state (running vs suspended): each case asserts the
// resulting instance states, the machine's BE core allocation, and the BE
// lifecycle events emitted on the observability bus.
func TestApplyActions(t *testing.T) {
	const at = sim20s // a virtual timestamp events should carry through

	cases := []struct {
		name      string
		act       controller.Action
		suspended bool // park the pod first (SuspendBE pre-applied)
		growFirst bool // grow instance 0 so CutBE has slack to cut

		wantStates    []bejobs.State // the two seeded instances, in order
		wantOps       []string       // BE events emitted by the tested apply
		wantInstances int            // len(p.instances) after
		wantBECores   int            // machine BE core total after
		wantSuspended bool           // p.suspended after
		wantKills     int            // p.stats.Kills after
	}{
		{
			name:          "StopBE kills running instances",
			act:           controller.StopBE,
			wantStates:    []bejobs.State{bejobs.Killed, bejobs.Killed},
			wantOps:       []string{"kill", "kill"},
			wantInstances: 0, wantBECores: 0, wantKills: 2,
		},
		{
			name: "StopBE kills suspended instances", act: controller.StopBE,
			suspended:     true,
			wantStates:    []bejobs.State{bejobs.Killed, bejobs.Killed},
			wantOps:       []string{"kill", "kill"},
			wantInstances: 0, wantBECores: 0, wantKills: 2,
		},
		{
			name: "SuspendBE parks running instances", act: controller.SuspendBE,
			wantStates:    []bejobs.State{bejobs.Suspended, bejobs.Suspended},
			wantOps:       []string{"suspend", "suspend"},
			wantInstances: 2, wantBECores: 0, wantSuspended: true,
		},
		{
			name: "SuspendBE on suspended pod is idempotent", act: controller.SuspendBE,
			suspended:     true,
			wantStates:    []bejobs.State{bejobs.Suspended, bejobs.Suspended},
			wantOps:       nil, // already suspended: no second transition event
			wantInstances: 2, wantBECores: 0, wantSuspended: true,
		},
		{
			name: "CutBE shrinks running instances", act: controller.CutBE,
			growFirst:     true, // instance 0 at 2 cores; instance 1 at the floor
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       []string{"cut", "cut"},
			wantInstances: 2, wantBECores: 2, // both back at the 1-core floor
		},
		{
			name: "CutBE resumes a suspended pod before cutting", act: controller.CutBE,
			suspended:     true,
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       []string{"resume", "resume", "cut", "cut"},
			wantInstances: 2, wantBECores: 2,
		},
		{
			name: "DisallowBEGrowth freezes running instances", act: controller.DisallowBEGrowth,
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       nil,
			wantInstances: 2, wantBECores: 2,
		},
		{
			name: "DisallowBEGrowth resumes a suspended pod", act: controller.DisallowBEGrowth,
			suspended:     true,
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       []string{"resume", "resume"},
			wantInstances: 2, wantBECores: 2,
		},
		{
			name: "AllowBEGrowth grows one instance and admits another", act: controller.AllowBEGrowth,
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       []string{"grow", "launch"},
			wantInstances: 3, wantBECores: 4, // 1 + grown 2 + launched 1
		},
		{
			name: "AllowBEGrowth resumes then grows a suspended pod", act: controller.AllowBEGrowth,
			suspended:     true,
			wantStates:    []bejobs.State{bejobs.Running, bejobs.Running},
			wantOps:       []string{"resume", "resume", "grow", "launch"},
			wantInstances: 3, wantBECores: 4,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, p, sink := newApplyFixture(t)
			seeded := append([]*bejobs.Instance(nil), p.instances...)
			if tc.growFirst {
				if !p.agent.GrowBE(seeded[0].ID) {
					t.Fatal("setup: GrowBE failed with free headroom")
				}
			}
			if tc.suspended {
				e.apply(p, controller.SuspendBE, 0, 0.3, 0.2)
				if !p.suspended {
					t.Fatal("setup: pod not suspended after SuspendBE")
				}
				sink.Reset()
			}

			e.apply(p, tc.act, at, 0.3, 0.2)

			for i, in := range seeded {
				if in.State != tc.wantStates[i] {
					t.Errorf("instance %d state = %v, want %v", i, in.State, tc.wantStates[i])
				}
			}
			if got := beOpsOf(sink.Events()); !equalStrings(got, tc.wantOps) {
				t.Errorf("BE events = %v, want %v", got, tc.wantOps)
			}
			for _, ev := range sink.Events() {
				if ev.Kind == obs.KindBE && ev.At != int64(at) {
					t.Errorf("BE event %q at %d, want virtual time %d", ev.Op, ev.At, int64(at))
				}
				if ev.Kind == obs.KindBE && ev.Pod != p.comp.Name {
					t.Errorf("BE event %q on pod %q, want %q", ev.Op, ev.Pod, p.comp.Name)
				}
			}
			if len(p.instances) != tc.wantInstances {
				t.Errorf("instances = %d, want %d", len(p.instances), tc.wantInstances)
			}
			if got := p.machine.BETotals().Cores; got != tc.wantBECores {
				t.Errorf("machine BE cores = %d, want %d", got, tc.wantBECores)
			}
			if p.suspended != tc.wantSuspended {
				t.Errorf("suspended = %v, want %v", p.suspended, tc.wantSuspended)
			}
			if p.stats.Kills != tc.wantKills {
				t.Errorf("kills = %d, want %d", p.stats.Kills, tc.wantKills)
			}
			// The cluster invariant must hold after every action.
			if err := checkNoOversubscription(p.machine); err != nil {
				t.Error(err)
			}
		})
	}
}

// sim20s is 20 virtual seconds in sim.Time nanoseconds.
const sim20s = 20_000_000_000

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkNoOversubscription asserts the machine's grants fit its spec.
func checkNoOversubscription(m *cluster.Machine) error {
	if m.FreeCores() < 0 || m.FreeLLCWays() < 0 || m.FreeMemoryGB() < 0 {
		return &oversubError{m.Name, m.FreeCores(), m.FreeLLCWays(), m.FreeMemoryGB()}
	}
	return nil
}

type oversubError struct {
	machine    string
	cores, llc int
	mem        float64
}

func (e *oversubError) Error() string {
	return "machine " + e.machine + " oversubscribed"
}

// assertSoARowSynced checks one pod's SoA row against a fresh derivation
// from the AoS view: the dirty flag cleared and every cached BE aggregate
// equal to what refreshBE would compute right now.
func assertSoARowSynced(t *testing.T, e *Engine, p *podRuntime) {
	t.Helper()
	i := p.idx
	if e.soa.beDirty[i] {
		t.Fatal("row still dirty after a tick")
	}
	if got, want := e.soa.beDemand[i], p.beDemand(); got != want {
		t.Errorf("soa.beDemand = %v, AoS derives %v", got, want)
	}
	if got, want := e.soa.beFreq[i], p.agent.BEFrequency(); got != want {
		t.Errorf("soa.beFreq = %v, AoS derives %v", got, want)
	}
	if got, want := e.soa.beCores[i], p.runningBEAlloc().Cores; got != want {
		t.Errorf("soa.beCores = %d, AoS derives %d", got, want)
	}
	if len(p.instCache) != len(p.instances) {
		t.Fatalf("instCache holds %d entries, instances %d", len(p.instCache), len(p.instances))
	}
	for j, in := range p.instances {
		c := p.instCache[j]
		if c.in != in {
			t.Errorf("instCache[%d] caches %q, instances[%d] is %q", j, c.in.ID, j, in.ID)
		}
		live := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: in.ID})
		if c.alloc != live {
			t.Errorf("instCache[%d].alloc = %p, ledger holds %p", j, c.alloc, live)
		}
	}
}

// TestSoAResyncAfterMutations is the satellite coherence table: every
// cold-path mutation of the AoS pod view — control actions through apply,
// fault crashes, external admission, eviction draining — must mark the
// SoA row dirty so the next tick rebuilds the cached BE aggregates to
// exactly what the mutated view derives.
func TestSoAResyncAfterMutations(t *testing.T) {
	const at = sim20s

	applyCase := func(act controller.Action, prep func(*Engine, *podRuntime)) func(t *testing.T) {
		return func(t *testing.T) {
			e, p, _ := newApplyFixture(t)
			// Mid-run: a few ticks so the row is warm and clean.
			now := sim.Time(0)
			for k := 0; k < 3; k++ {
				now = now.Add(TickDt)
				e.Step(now, 0.3)
			}
			if e.soa.beDirty[p.idx] {
				t.Fatal("setup: row dirty before mutation")
			}
			if prep != nil {
				prep(e, p)
			}
			e.apply(p, act, at, 0.3, 0.2)
			if !e.soa.beDirty[p.idx] {
				t.Fatal("apply did not mark the row dirty")
			}
			now = now.Add(TickDt)
			e.Step(now, 0.3)
			assertSoARowSynced(t, e, p)
		}
	}

	t.Run("apply StopBE", applyCase(controller.StopBE, nil))
	t.Run("apply SuspendBE", applyCase(controller.SuspendBE, nil))
	t.Run("apply AllowBEGrowth", applyCase(controller.AllowBEGrowth, nil))
	t.Run("apply CutBE after growth", applyCase(controller.CutBE, func(e *Engine, p *podRuntime) {
		if !p.agent.GrowBE(p.instances[0].ID) {
			t.Fatal("setup: GrowBE failed with free headroom")
		}
	}))
	t.Run("apply resume from suspended", applyCase(controller.DisallowBEGrowth, func(e *Engine, p *podRuntime) {
		e.apply(p, controller.SuspendBE, at, 0.3, 0.2)
	}))

	t.Run("crashBE", func(t *testing.T) {
		e, p, _ := newApplyFixture(t)
		now := sim.Time(0)
		for k := 0; k < 3; k++ {
			now = now.Add(TickDt)
			e.Step(now, 0.3)
		}
		e.crashBE(p, now)
		if !e.soa.beDirty[p.idx] {
			t.Fatal("crashBE did not mark the row dirty")
		}
		if len(p.instances) != 0 {
			t.Fatalf("crash left %d instances", len(p.instances))
		}
		now = now.Add(TickDt)
		e.Step(now, 0.3)
		assertSoARowSynced(t, e, p)
	})

	t.Run("AdmitBE and TakeEvicted", func(t *testing.T) {
		e := newExternalEngine(t, true)
		p := e.pods[0]
		now := sim.Time(0)
		for k := 0; k < 3; k++ {
			now = now.Add(TickDt)
			e.Step(now, 0.3)
		}
		if !e.AdmitBE(p.comp.Name, bejobs.Wordcount, "be-sync-1") {
			t.Fatal("admission onto an empty machine should succeed")
		}
		if !e.soa.beDirty[p.idx] {
			t.Fatal("AdmitBE did not mark the row dirty")
		}
		now = now.Add(TickDt)
		e.Step(now, 0.3)
		assertSoARowSynced(t, e, p)

		// Evict and drain: the view mutation happens at apply time; the
		// drain must not disturb the already-resynced row.
		e.apply(p, controller.StopBE, now, 0.3, -0.1)
		now = now.Add(TickDt)
		e.Step(now, 0.3)
		if ev := e.TakeEvicted(); len(ev) != 1 {
			t.Fatalf("TakeEvicted = %v, want the one eviction", ev)
		}
		assertSoARowSynced(t, e, p)
	})
}

// TestControlTickEmitsDecisionPerPod pins the acceptance property of the
// decision trace: every control tick publishes exactly one decision event
// per Servpod, carrying the action, the measured load and the slack.
func TestControlTickEmitsDecisionPerPod(t *testing.T) {
	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	t.Cleanup(obs.Uninstall)
	svc := workload.Redis()
	e, err := New(Config{
		Service: svc,
		Pattern: loadgen.Constant(0.4),
		SLA:     0.00115,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress},
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	const d = 10 * time.Second
	if _, err := e.Run(d); err != nil {
		t.Fatal(err)
	}
	// Control ticks fire on the 2 s grid strictly inside (0, d): at 2, 4,
	// 6 and 8 s with the default period and 100 ms tick.
	const wantTicks = 4
	perPod := make(map[string]int)
	for _, ev := range sink.Events() {
		if ev.Kind != obs.KindDecision {
			continue
		}
		perPod[ev.Pod]++
		if ev.Op == "" || ev.Reason == "" {
			t.Fatalf("decision missing action or reason: %+v", ev)
		}
		if ev.Load != 0.4 {
			t.Fatalf("decision load = %v, want 0.4", ev.Load)
		}
		if ev.Slack == 0 {
			t.Fatalf("decision slack not populated: %+v", ev)
		}
	}
	if len(perPod) != len(svc.Components) {
		t.Fatalf("decisions cover %d pods, want %d (%v)", len(perPod), len(svc.Components), perPod)
	}
	for pod, n := range perPod {
		if n != wantTicks {
			t.Fatalf("pod %s got %d decisions, want %d", pod, n, wantTicks)
		}
	}
}
