package engine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// verdictConfigs are co-located runs in Algorithm 1's trial shape (tl/2
// -> tl -> tl) under an aggressive Rhythm policy, at SLAs tight enough
// that some violate and loose enough that others do not, plus an
// off-grid control period and a fault schedule (one-tick blocks).
func verdictConfigs(t *testing.T) map[string]Config {
	t.Helper()
	aggressive := func(svc *workload.Service) controller.Policy {
		th := map[string]controller.Thresholds{}
		for _, c := range svc.Components {
			th[c.Name] = controller.Thresholds{Loadlimit: 0.9, Slacklimit: 0.12}
		}
		pol, err := controller.NewRhythm(th)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	mix := []bejobs.Type{bejobs.Wordcount, bejobs.StreamDRAM, bejobs.StreamLLC}
	slas := []float64{0.8, 1, 1.3} // × the solo SLA
	cfgs := map[string]Config{}
	for _, svc := range []*workload.Service{workload.ECommerce(), workload.Redis(), workload.SNMS()} {
		// The service's SLA as the profiler derives it: the worst window
		// p99 of a solo run at max load.
		solo, err := mustNew(t, Config{Service: svc, Pattern: loadgen.Constant(1), Seed: 99}).Run(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, sla := range slas {
			for seed := uint64(1); seed <= 3; seed++ {
				cfgs[fmt.Sprintf("%s/sla=%g/seed=%d", svc.Name, sla, seed)] = Config{
					Service: svc,
					Pattern: loadgen.Replay{Samples: []float64{0.4, 0.8, 0.8}, Spacing: 15 * time.Second},
					SLA:     sla * solo.WorstP99,
					Policy:  aggressive(svc),
					BETypes: mix,
					Seed:    seed,
					Warmup:  10 * time.Second,
				}
			}
		}
	}
	crash := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.BECrash, Pod: "Master", At: 12 * time.Second, RestartDelay: 3 * time.Second},
		{Kind: faults.InterferenceStorm, Pod: "Slave", At: 15 * time.Second, Duration: 6 * time.Second, Magnitude: 2},
	}}
	if err := crash.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, sla := range slas {
		name := fmt.Sprintf("Redis/sla=%g/seed=1", sla)
		cfg := cfgs[name]
		off := cfg
		off.ControlPeriod = 1350 * time.Millisecond
		cfgs[name+"/period=1.35s"] = off
		f := cfg
		f.Faults = crash
		cfgs[name+"/faults"] = f
	}
	return cfgs
}

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// firstViolation runs cfg a tick at a time and returns the engine time
// just after the first control tick that counted a violation, or the end
// of the run.
func firstViolation(t *testing.T, cfg Config, dur time.Duration) sim.Time {
	t.Helper()
	e := mustNew(t, cfg)
	end := sim.Time(0).Add(dur)
	for e.Now() < end {
		if e.RunUntil(e.Now().Add(TickDt)).Violations > 0 {
			break
		}
	}
	return e.Now()
}

// TestViolatesMatchesRun holds the verdict entry point to Run: on a fresh
// engine, Violates(d) is Run(d).Violations > 0, and it stops just after
// the first control tick that violates (the end of the run when none
// does), with one balanced run bracket under tracing whose end reason
// carries Run's violations=N.
func TestViolatesMatchesRun(t *testing.T) {
	const dur = 30 * time.Second
	seen := map[bool]int{}
	for name, cfg := range verdictConfigs(t) {
		st, err := mustNew(t, cfg).Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		want := st.Violations > 0
		stop := firstViolation(t, cfg, dur)

		sink := &obs.MemorySink{}
		obs.Install(obs.NewBus(sink))
		e := mustNew(t, cfg)
		got, err := e.Violates(context.Background(), dur)
		obs.Uninstall()
		if err != nil {
			t.Fatal(err)
		}
		seen[got]++
		if got != want {
			t.Errorf("%s: Violates = %v, Run counted %d violations", name, got, st.Violations)
		}
		if e.Now() != stop {
			t.Errorf("%s: Violates stopped at %v, first violation ends at %v", name, e.Now(), stop)
		}
		var runs []obs.Event
		for _, ev := range sink.Events() {
			if ev.Kind == obs.KindRun {
				runs = append(runs, ev)
			}
		}
		wantEnd := "stop=end violations=0"
		if want {
			wantEnd = "stop=violation violations=1"
		}
		if len(runs) != 2 || runs[0].Op != "start" || runs[1].Op != "end" ||
			runs[1].Reason != wantEnd || runs[1].At != int64(stop) {
			t.Errorf("%s: run brackets %+v, want start then end %q at %d", name, runs, wantEnd, stop)
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("verdicts %v: the table must hold violating and passing runs", seen)
	}
}

// countdownCtx is a context whose Err turns to Canceled on its n-th call:
// Violates asks once per control-period slice, so it cancels the run at a
// known boundary without a second goroutine.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestViolatesCancelled: a run cancelled at a slice boundary returns
// false there, even when it would have violated later, with a "cancel"
// end bracket; an already cancelled context runs no tick; and an engine
// running the same configuration at the same time is untouched — its
// verdict and stats equal a run alone.
func TestViolatesCancelled(t *testing.T) {
	const dur = 30 * time.Second
	// The plain configuration whose first violation comes latest.
	cfgs := verdictConfigs(t)
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var cfg Config
	var stop sim.Time
	for _, name := range names {
		c := cfgs[name]
		if c.Faults != nil || c.ControlPeriod != 0 {
			continue
		}
		if s := firstViolation(t, c, dur); s < sim.Time(0).Add(dur) && s > stop {
			cfg, stop = c, s
		}
	}
	if stop == 0 {
		t.Fatal("no violating configuration")
	}
	alone := mustNew(t, cfg)
	want, err := alone.Violates(context.Background(), dur)
	if err != nil || !want {
		t.Fatalf("uncancelled verdict %v, %v; want true", want, err)
	}

	period := sim.Time(0).Add(2 * time.Second) // the default control period
	slices := int(stop / period)               // whole slices before the violating one
	if slices < 2 {
		t.Fatalf("first violation at %v: too early to cancel before it", stop)
	}

	sink := &obs.MemorySink{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()
	cancelled, other := mustNew(t, cfg), mustNew(t, cfg)
	var wg sync.WaitGroup
	var otherV bool
	var otherErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		otherV, otherErr = other.Violates(context.Background(), dur)
	}()
	got, err := cancelled.Violates(&countdownCtx{Context: context.Background(), n: slices}, dur)
	wg.Wait()
	if err != nil || otherErr != nil {
		t.Fatal(err, otherErr)
	}
	if got {
		t.Errorf("cancelled run returned true")
	}
	// Slice k ends just after the k-th control tick; slices-1 of them ran.
	if at := period*sim.Time(slices-1) + sim.Time(TickDt); cancelled.Now() != at {
		t.Errorf("cancelled run stopped at %v, want %v", cancelled.Now(), at)
	}
	if cancelled.stats.Violations != 0 {
		t.Errorf("cancelled run counted %d violations before its stop", cancelled.stats.Violations)
	}
	if otherV != want || other.Now() != alone.Now() || !reflect.DeepEqual(other.stats, alone.stats) {
		t.Errorf("concurrent run diverged from a run alone: verdict %v at %v, want %v at %v",
			otherV, other.Now(), want, alone.Now())
	}
	ends := 0
	for _, ev := range sink.Events() {
		if ev.Kind == obs.KindRun && ev.Op == "end" && ev.Reason == "stop=cancel violations=0" {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("%d cancel end brackets, want 1", ends)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := mustNew(t, cfg)
	if v, err := e.Violates(ctx, dur); v || err != nil || e.Now() != 0 {
		t.Errorf("pre-cancelled run: %v, %v at %v; want false, nil at 0", v, err, e.Now())
	}
}
