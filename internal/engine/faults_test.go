package engine

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/workload"
)

// faultThresholds are faultCfg's per-Servpod Rhythm thresholds.
var faultThresholds = map[string]controller.Thresholds{
	"Web":      {Loadlimit: 0.9, Slacklimit: 0.1},
	"MySQL":    {Loadlimit: 0.6, Slacklimit: 0.3},
	"Amoeba":   {Loadlimit: 0.95, Slacklimit: 0.05},
	"Memcache": {Loadlimit: 0.9, Slacklimit: 0.1},
}

func faultCfg(t *testing.T, sched *faults.Schedule) Config {
	t.Helper()
	pol, err := controller.NewRhythm(faultThresholds)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(0.5),
		SLA:     0.25,
		Policy:  pol,
		BETypes: []bejobs.Type{bejobs.Wordcount},
		Seed:    2020,
		Warmup:  5 * time.Second,
		Faults:  sched,
	}
}

func mustRun(t *testing.T, cfg Config, dur time.Duration) *RunStats {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEmptyScheduleIsBitFrozen pins the frozen-path contract at the
// stats level: a nil schedule and an empty schedule produce identical
// runs.
func TestEmptyScheduleIsBitFrozen(t *testing.T) {
	a := mustRun(t, faultCfg(t, nil), 30*time.Second)
	b := mustRun(t, faultCfg(t, &faults.Schedule{}), 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("empty schedule perturbed the run:\nnil:   %+v\nempty: %+v", a, b)
	}
}

// TestFaultRunsDeterministic pins that the same seed and schedule give
// byte-identical stats across repeated runs.
func TestFaultRunsDeterministic(t *testing.T) {
	sched := func() *faults.Schedule {
		s, err := faults.Preset("chaos", 2020, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mustRun(t, faultCfg(t, sched()), 60*time.Second)
	b := mustRun(t, faultCfg(t, sched()), 60*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed + schedule gave different runs")
	}
}

// TestSharedScheduleConcurrentRuns pins that engines may share one
// schedule: eight goroutines each build and run an engine on one schedule
// nobody has validated yet, so their New calls race to be its first
// Validate, and every run must equal a serial run on a fresh copy. The
// schedule holds the chaos and storm presets' events, so the runs query
// every kind at once. CI runs it under the race detector.
func TestSharedScheduleConcurrentRuns(t *testing.T) {
	var events []faults.Event
	for _, name := range []string{"chaos", "storm"} {
		p, err := faults.Preset(name, 2020, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, p.Events...)
	}
	fresh := func() *faults.Schedule { return &faults.Schedule{Events: slices.Clone(events)} }
	want := mustRun(t, faultCfg(t, fresh()), 30*time.Second)
	if want.DegradedPeriods == 0 || want.TotalCrashes() == 0 {
		t.Fatalf("the schedule left no trace: %d degraded periods, %d crashes", want.DegradedPeriods, want.TotalCrashes())
	}

	cfg := faultCfg(t, fresh())
	got := make([]*RunStats, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := New(cfg)
			if err == nil {
				got[g], err = e.Run(30 * time.Second)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d's run on the shared schedule differs from a serial run", g)
		}
	}
}

// TestLoadSurgeRaisesPressure: a big surge must push the worst p99 above
// the fault-free run's.
func TestLoadSurgeRaisesPressure(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LoadSurge, At: 10 * time.Second, Duration: 15 * time.Second, Magnitude: 1.8},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, faultCfg(t, nil), 40*time.Second)
	surged := mustRun(t, faultCfg(t, sched), 40*time.Second)
	if surged.WorstP99 <= base.WorstP99 {
		t.Fatalf("surge did not raise worst p99: %v <= %v", surged.WorstP99, base.WorstP99)
	}
}

// TestCrashKillsAndBlocksRestart: a crash empties the machine's BE set
// and the restart delay keeps it empty.
func TestCrashKillsAndBlocksRestart(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.BECrash, At: 20 * time.Second, RestartDelay: 10 * time.Second},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	st := mustRun(t, faultCfg(t, sched), 40*time.Second)
	if st.TotalCrashes() == 0 {
		t.Fatal("no BE instance crashed")
	}
	base := mustRun(t, faultCfg(t, nil), 40*time.Second)
	if base.TotalCrashes() != 0 {
		t.Fatal("fault-free run counted crashes")
	}
}

// TestDropoutNeverActsOnPoisonedSlack is the acceptance pin: under NaN
// and stale dropouts the engine never panics, never records an
// AllowBEGrowth decision during the blind window, reports the degraded
// reason in the traced decision events, and keeps the true statistics
// NaN-free.
func TestDropoutNeverActsOnPoisonedSlack(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.MeasurementDropout, At: 10 * time.Second, Duration: 8 * time.Second, Mode: faults.DropNaN},
		{Kind: faults.MeasurementDropout, At: 24 * time.Second, Duration: 8 * time.Second, Mode: faults.DropStale},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}

	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()

	cfg := faultCfg(t, sched)
	cfg.Timeline = true
	st := mustRun(t, cfg, 40*time.Second)

	if st.DegradedPeriods == 0 {
		t.Fatal("no control period ran degraded")
	}
	if math.IsNaN(st.MeanP99) || math.IsNaN(st.WorstP99) {
		t.Fatal("true statistics NaN-poisoned")
	}
	blind := func(at int64) bool {
		tt := time.Duration(at)
		return (tt >= 10*time.Second && tt < 18*time.Second) ||
			(tt >= 24*time.Second && tt < 32*time.Second)
	}
	sawDegradedReason := false
	for _, ev := range sink.Events() {
		if ev.Kind != obs.KindDecision || !blind(ev.At) {
			continue
		}
		if ev.Op == controller.AllowBEGrowth.String() {
			t.Fatalf("AllowBEGrowth at %v during measurement dropout", time.Duration(ev.At))
		}
		if ev.Reason != "" {
			sawDegradedReason = true
			if want := "degraded"; len(ev.Reason) < len(want) || ev.Reason[:len(want)] != want {
				t.Fatalf("blind-window decision reason %q does not report degraded mode", ev.Reason)
			}
		}
	}
	if !sawDegradedReason {
		t.Fatal("no degraded-mode reason reached the bus")
	}

	// The timeline's action log must show the escalation: growth frozen
	// first, cuts once blindness persists past the threshold.
	sawFreeze, sawCut := false, false
	for _, a := range st.Actions {
		if !blind(int64(a.At)) {
			continue
		}
		switch a.Action {
		case controller.DisallowBEGrowth:
			sawFreeze = true
		case controller.CutBE:
			sawCut = true
		case controller.AllowBEGrowth:
			t.Fatalf("AllowBEGrowth in action log at %v during dropout", a.At)
		}
	}
	if !sawFreeze || !sawCut {
		t.Fatalf("escalation incomplete: freeze=%v cut=%v", sawFreeze, sawCut)
	}
}

// TestFaultEdgesOnBus: with a bus installed, fault activations and
// recoveries appear as KindFault events; without faults none do.
func TestFaultEdgesOnBus(t *testing.T) {
	sched := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.InterferenceStorm, At: 5 * time.Second, Duration: 10 * time.Second, Magnitude: 2.5},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()

	mustRun(t, faultCfg(t, sched), 20*time.Second)
	var starts, ends int
	for _, ev := range sink.Events() {
		if ev.Kind != obs.KindFault {
			continue
		}
		if ev.ID != string(faults.InterferenceStorm) {
			t.Fatalf("unexpected fault kind %q", ev.ID)
		}
		switch ev.Op {
		case "start":
			starts++
		case "end":
			ends++
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("want one start and one end edge, got %d/%d", starts, ends)
	}
}
