package engine

import (
	"reflect"
	"testing"
	"time"

	"rhythm/internal/controller"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
)

// TestTracedDecisionsMatchUntraced: for every registered policy, asking
// for decision reasons must not change a single decision — the same
// config run traced and untraced yields identical RunStats — and every
// traced decision carries a non-empty reason. The diurnal load under the
// chaos preset drives the forecast, pressure and degraded-mode branches. "none" is skipped:
// the solo policy has no branch to report.
func TestTracedDecisionsMatchUntraced(t *testing.T) {
	sched, err := faults.Preset("chaos", 2020, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := loadgen.NewDiurnal(20*time.Second, 0.3, 0.95, 0.05, 2020)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range controller.Names() {
		if name == "none" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			run := func(sink *obs.MemorySink) *RunStats {
				if sink != nil {
					obs.Install(obs.NewBus(sink))
					defer obs.Uninstall()
				}
				cfg := faultCfg(t, sched)
				cfg.Pattern = diurnal
				pol, err := controller.New(name, controller.FactoryOpts{Thresholds: faultThresholds, SLA: cfg.SLA})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Policy = pol
				return mustRun(t, cfg, 40*time.Second)
			}
			sink := &obs.MemorySink{}
			if plain, traced := run(nil), run(sink); !reflect.DeepEqual(plain, traced) {
				t.Fatalf("tracing changed the run:\nuntraced: worstP99=%v viol=%d kills=%d\ntraced:   worstP99=%v viol=%d kills=%d",
					plain.WorstP99, plain.Violations, plain.TotalKills(), traced.WorstP99, traced.Violations, traced.TotalKills())
			}
			decisions := 0
			for _, ev := range sink.Events() {
				if ev.Kind != obs.KindDecision {
					continue
				}
				decisions++
				if ev.Reason == "" {
					t.Fatalf("decision %s on %s at %d has no reason", ev.Op, ev.Pod, ev.At)
				}
			}
			if decisions == 0 {
				t.Fatal("no decision events traced")
			}
		})
	}
}
