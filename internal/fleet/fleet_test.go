package fleet

import (
	"reflect"
	"testing"
	"time"

	"rhythm/internal/controller"
	"rhythm/internal/loadgen"
	"rhythm/internal/workload"
)

// heraclesEntries turns a preset profile into config entries under the
// uniform Heracles policy (no offline profiling needed in tests). SLA 0
// disables the latency guard, so machines accept whenever load allows.
func heraclesEntries(t *testing.T, preset string) []Entry {
	t.Helper()
	prof, err := PresetProfile(preset)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for _, pe := range prof.Mix {
		svc, err := workload.ByName(pe.Service)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{
			Service:  svc,
			Replicas: pe.Replicas,
			Policy:   controller.NewHeracles(),
		})
	}
	return entries
}

// TestDeterminismAcrossJobs is the ISSUE's fleet determinism regression:
// the 100-machine preset at seed 2020 must produce an identical Result at
// -jobs 1 and -jobs 8. Machine slices run in parallel, so any shared
// mutable state or scheduling-order dependence shows up here as a diff.
func TestDeterminismAcrossJobs(t *testing.T) {
	run := func(jobs int) *Result {
		f, err := New(Config{
			Entries:                heraclesEntries(t, "fleet100"),
			Pattern:                loadgen.Constant(0.5),
			ArrivalsPerMachineHour: 600, // busy queue: dispatch every epoch
			Duration:               6 * time.Second,
			Seed:                   2020,
			Jobs:                   jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return f.Run()
	}
	r1 := run(1)
	r8 := run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("fleet result differs across worker counts:\njobs=1: %+v\njobs=8: %+v", r1, r8)
	}
	if r1.Machines != 100 {
		t.Fatalf("machines = %d, want 100", r1.Machines)
	}
	if r1.Queue.Dispatched == 0 {
		t.Fatal("degenerate run: nothing dispatched")
	}
}

// TestStepAllocationFree pins the satellite perf contract on the epoch
// barrier: at steady state (arrival label buffer warm, scheduler scratch
// grown, machine-name strings precomputed) a Step over the fleet4 preset
// allocates only the rare admission-path objects — instances being
// launched — never the per-epoch labels, state slices, or dispatch
// scratch it used to rebuild.
func TestStepAllocationFree(t *testing.T) {
	f, err := New(Config{
		Entries:                heraclesEntries(t, "fleet4"),
		Pattern:                loadgen.Constant(0.5),
		ArrivalsPerMachineHour: 600, // busy queue: dispatch every epoch
		Duration:               time.Hour,
		Seed:                   2020,
		Jobs:                   1, // measure the barrier, not the pool
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm past the engines' inertia transient and the scratch growth.
	for i := 0; i < 10; i++ {
		f.Step()
	}
	avg := testing.AllocsPerRun(20, func() { f.Step() })
	// The hot path is allocation-free; what remains is admission (new BE
	// instances and their grants) plus occasional slice regrowth — a
	// handful of objects, where the pre-SoA barrier paid thousands
	// (per-machine name concats, fresh dispatch slices, label Sprintfs).
	if avg > 50 {
		t.Fatalf("fleet Step allocates %.1f objects/op at steady state, want <= 50", avg)
	}
}

// TestQueueConservation pins the queue's flow invariant: every job that
// entered (accepted submission or requeue) either left via dispatch or is
// still pending.
func TestQueueConservation(t *testing.T) {
	f, err := New(Config{
		Entries: []Entry{{
			Service:  workload.ECommerce(),
			Replicas: 1,
			Policy:   controller.NewHeracles(),
		}},
		Pattern:                loadgen.Constant(0.4),
		ArrivalsPerMachineHour: 3000,
		QueueLimit:             16, // small: exercise the rejection path too
		Duration:               30 * time.Second,
		Seed:                   7,
		Jobs:                   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	q := res.Queue
	if q.Submitted+q.Requeued-q.Dispatched != q.Pending {
		t.Fatalf("queue flow broken: submitted %d + requeued %d - dispatched %d != pending %d",
			q.Submitted, q.Requeued, q.Dispatched, q.Pending)
	}
	if q.Dispatched == 0 {
		t.Fatal("degenerate run: nothing dispatched")
	}
	if q.Rejected == 0 {
		t.Fatal("expected rejections with a 16-slot queue at 3000 arrivals/machine-hour")
	}
}

// loadKiller allows BE growth below the threshold load and stops BE above
// it — a scripted policy that forces the kill -> requeue protocol
// deterministically (Heracles only kills on negative slack, which depends
// on the latency model's behaviour).
type loadKiller struct{ threshold float64 }

func (k loadKiller) Decide(in controller.PolicyInput) (controller.Action, string) {
	if in.Load > k.threshold {
		return controller.StopBE, ""
	}
	return controller.AllowBEGrowth, ""
}
func (k loadKiller) Name() string { return "load-killer" }

// TestRequeueOnKill drives the full §4 loop: jobs dispatch during the
// low-load phase, the load step forces StopBE, the evicted jobs re-enter
// the queue, and the scheduler's requeue counter proves the machines
// reported them back.
func TestRequeueOnKill(t *testing.T) {
	f, err := New(Config{
		Entries: []Entry{{
			Service:  workload.Redis(),
			Replicas: 2,
			Policy:   loadKiller{threshold: 0.6},
		}},
		// 10 s at 0.3 (dispatch + admit), then 10 s at 0.9 (kill).
		Pattern:                loadgen.Step{Levels: []float64{0.3, 0.9}, Dwell: 10 * time.Second},
		ArrivalsPerMachineHour: 3000,
		Duration:               20 * time.Second,
		Seed:                   11,
		Jobs:                   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if res.Kills == 0 {
		t.Fatal("load step should have forced StopBE kills")
	}
	if res.Queue.Requeued == 0 {
		t.Fatal("killed jobs must be requeued to the shared scheduler")
	}
	if res.Queue.Dispatched == 0 {
		t.Fatal("degenerate run: nothing dispatched")
	}
}
