package fleet

import (
	"reflect"
	"testing"
	"time"

	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
)

// fleetConfig is the shared fixture for the tracing tests: busy enough
// that every epoch dispatches, long enough to cross several epochs.
func fleetConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Entries:                heraclesEntries(t, "fleet4"),
		Pattern:                loadgen.Constant(0.5),
		ArrivalsPerMachineHour: 1200,
		Duration:               6 * time.Second,
		Seed:                   2020,
		Jobs:                   2,
	}
}

// TestTracedRunMatchesUntraced is the observability no-interference pin:
// installing a bus must not change a fleet run's Result in any field.
// Instruments live outside the simulation state, and event emission never
// touches the RNG or the virtual clock.
func TestTracedRunMatchesUntraced(t *testing.T) {
	run := func(traced bool) *Result {
		if traced {
			sink := &obs.MemorySink{}
			obs.Install(obs.NewBus(sink))
			defer obs.Uninstall()
		}
		f, err := New(fleetConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		return f.Run()
	}
	plain := run(false)
	traced := run(true)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the fleet result:\nuntraced: %+v\ntraced:   %+v", plain, traced)
	}
	if plain.Queue.Dispatched == 0 {
		t.Fatal("degenerate run: nothing dispatched")
	}
}

// TestFleetEmitsObsEvents pins the fleet-layer emission contract: epoch
// brackets as run-phase events, BE queue ops (dispatch at minimum) as be
// events, and the epoch counter / pending gauge as instruments.
func TestFleetEmitsObsEvents(t *testing.T) {
	sink := &obs.MemorySink{}
	bus := obs.NewBus(sink)
	obs.Install(bus)
	defer obs.Uninstall()

	f, err := New(fleetConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()

	phases := map[string]int{}
	beOps := map[string]int{}
	for _, ev := range sink.Events() {
		if ev.Scope != "fleet" {
			continue
		}
		switch ev.Kind {
		case obs.KindRun:
			phases[ev.Op]++
		case obs.KindBE:
			beOps[ev.Op]++
		}
	}
	epochs := res.Epochs
	if phases["epoch-start"] != epochs || phases["epoch-end"] != epochs {
		t.Fatalf("epoch brackets = %v, want %d of each (result: %+v)", phases, epochs, res)
	}
	// One dispatch event per admitted job; the scheduler's Dispatched
	// count also includes assignments the isolation agent bounced.
	if beOps["dispatch"] == 0 || beOps["dispatch"] > res.Queue.Dispatched {
		t.Fatalf("dispatch events = %d, want (0, %d]", beOps["dispatch"], res.Queue.Dispatched)
	}
	// Every successful requeue — post-eviction or post-bounce — emits
	// exactly one event, matching the scheduler's own counter.
	if beOps["requeue"] != res.Queue.Requeued {
		t.Fatalf("requeue events = %d, want %d", beOps["requeue"], res.Queue.Requeued)
	}
	// Evictions cover kills and crashes alike.
	if beOps["evict"] != res.Kills+res.Crashes {
		t.Fatalf("evict events = %d, want %d kills + %d crashes", beOps["evict"], res.Kills, res.Crashes)
	}

	// Instruments: the epoch counter matches the result, and the pending
	// gauge holds the final queue depth.
	if v := bus.Counter("rhythm_fleet_epochs_total").Value(); v != uint64(epochs) {
		t.Fatalf("rhythm_fleet_epochs_total = %d, want %d", v, epochs)
	}
	if v := bus.Gauge("rhythm_fleet_pending_jobs").Value(); v != float64(res.Queue.Pending) {
		t.Fatalf("rhythm_fleet_pending_jobs = %v, want %d", v, res.Queue.Pending)
	}
}
