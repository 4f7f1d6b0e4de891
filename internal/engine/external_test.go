package engine

import (
	"math"
	"reflect"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func newExternalEngine(t *testing.T, external bool) *Engine {
	t.Helper()
	cfg := Config{
		Service:    workload.Redis(),
		Pattern:    loadgen.Constant(0.3),
		SLA:        0.00115,
		Policy:     controller.NewHeracles(),
		Seed:       7,
		ExternalBE: external,
	}
	if !external {
		cfg.BETypes = []bejobs.Type{bejobs.CPUStress}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunUntilMatchesRun pins the chunked-run invariant the fleet layer
// depends on: one 20 s Run and ten 2 s RunUntil slices over an identical
// configuration produce bitwise-equal statistics (same ticks, same
// control boundaries, same RNG stream consumption).
func TestRunUntilMatchesRun(t *testing.T) {
	pattern, err := loadgen.NewDiurnal(10*time.Second, 0.3, 0.8, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Service: workload.Redis(),
		Pattern: pattern,
		SLA:     0.00115,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress, bejobs.Wordcount},
		Seed:    2020,
	}
	whole := func() *RunStats {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run(20 * time.Second)
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
		for i := 1; i <= 10; i++ {
			e.RunUntil(sim.FromSeconds(float64(2 * i)))
		}
		return e.stats
	}()
	sliced.Duration = whole.Duration // Run-only bookkeeping, set by the caller
	if !reflect.DeepEqual(whole, sliced) {
		t.Fatalf("sliced run diverged from whole run:\nwhole:  worstP99=%v meanP99=%v viol=%d\nsliced: worstP99=%v meanP99=%v viol=%d",
			whole.WorstP99, whole.MeanP99, whole.Violations,
			sliced.WorstP99, sliced.MeanP99, sliced.Violations)
	}
	if math.IsNaN(whole.MeanP99) || whole.MeanP99 <= 0 {
		t.Fatalf("degenerate run: meanP99 = %v", whole.MeanP99)
	}
}

// TestExternalBENoSelfLaunch: in ExternalBE mode AllowBEGrowth must never
// self-launch an instance — admission belongs to the dispatcher.
func TestExternalBENoSelfLaunch(t *testing.T) {
	e := newExternalEngine(t, true)
	p := e.pods[0]
	e.apply(p, controller.AllowBEGrowth, 0, 0.3, 0.5)
	if len(p.instances) != 0 {
		t.Fatalf("ExternalBE engine self-launched %d instances", len(p.instances))
	}
}

// TestAdmitAndEvict drives the full dispatcher protocol: AdmitBE places
// an instance, MachineViews reports it resident, StopBE evicts it, and
// TakeEvicted hands it back exactly once.
func TestAdmitAndEvict(t *testing.T) {
	e := newExternalEngine(t, true)
	p := e.pods[0]

	if e.AdmitBE("no-such-pod", bejobs.Wordcount, "be-x") {
		t.Fatal("admitted onto unknown pod")
	}
	if !e.AdmitBE(p.comp.Name, bejobs.Wordcount, "be-1") {
		t.Fatal("admission onto an empty machine should succeed")
	}
	views := e.MachineViews(nil)
	if len(views) != len(e.pods) {
		t.Fatalf("views = %d, want %d", len(views), len(e.pods))
	}
	if views[0].Pod != p.comp.Name || views[0].Resident != 1 {
		t.Fatalf("view = %+v, want resident 1 on %s", views[0], p.comp.Name)
	}
	if views[0].Accepting {
		t.Fatal("machine should not accept before an AllowBEGrowth decision")
	}
	p.lastAction = controller.AllowBEGrowth
	if v := e.MachineViews(nil)[0]; !v.Accepting {
		t.Fatalf("machine should accept after AllowBEGrowth: %+v", v)
	}

	e.apply(p, controller.StopBE, 0, 0.3, -0.1)
	ev := e.TakeEvicted()
	if len(ev) != 1 || ev[0].ID != "be-1" || ev[0].Type != bejobs.Wordcount || ev[0].Crashed {
		t.Fatalf("evicted = %+v, want the killed be-1", ev)
	}
	if got := e.TakeEvicted(); len(got) != 0 {
		t.Fatalf("TakeEvicted should drain: %v", got)
	}
}

// TestAdmitBERespectsCapAndMode: admission refuses in non-external mode
// and at the per-machine instance cap.
func TestAdmitBERespectsCapAndMode(t *testing.T) {
	if e := newExternalEngine(t, false); e.AdmitBE(e.pods[0].comp.Name, bejobs.Wordcount, "be-1") {
		t.Fatal("non-ExternalBE engine accepted an external admission")
	}
	e := newExternalEngine(t, true)
	p := e.pods[0]
	admitted := 0
	for i := 0; i < maxBEPerMachine+5; i++ {
		if e.AdmitBE(p.comp.Name, bejobs.Iperf, sprintID(i)) {
			admitted++
		}
	}
	if admitted > maxBEPerMachine {
		t.Fatalf("admitted %d instances past the cap %d", admitted, maxBEPerMachine)
	}
	if len(p.instances) != admitted {
		t.Fatalf("instances = %d, want %d", len(p.instances), admitted)
	}
}

func sprintID(i int) string { return "be-" + string(rune('a'+i)) }
