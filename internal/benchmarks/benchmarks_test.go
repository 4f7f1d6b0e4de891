package benchmarks

import (
	"testing"

	"rhythm/internal/obs"
)

// BenchmarkRows runs every row of Rows as a sub-benchmark of the same
// name, the rows rhythm-bench writes to BENCH_engine.json. One row:
//
//	go test -run '^$' -bench 'Rows/^EngineTickColoSample$' ./internal/benchmarks
func BenchmarkRows(b *testing.B) {
	for _, r := range Rows {
		b.Run(r.Name, r.Fn)
	}
}

// TestObsDisabledZeroAllocs pins the observability contract in the test
// suite (not just the bench harness): with no bus installed, the full set
// of emit points allocates nothing.
func TestObsDisabledZeroAllocs(t *testing.T) {
	obs.Uninstall()
	sc := obs.Active().Scope("pin")
	var (
		c *obs.Counter
		g *obs.Gauge
		h *obs.Histogram
	)
	allocs := testing.AllocsPerRun(1000, func() {
		sc.Tick(1, 100, 0.7, 700, 80)
		sc.Decision(1, "pod", "AllowBEGrowth", 0.7, 0.2, 0.01, "")
		sc.BE(1, "pod", "be-1", "grow", 2, 4)
		sc.Cache("profile", "key", true)
		sc.Pool(16, 8)
		c.Inc()
		g.Add(1)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f per op, want 0", allocs)
	}
}

// TestColocatedFixtureRunsBE pins what the co-located rows claim to time:
// after the warm-up every machine of the fixture hosts BE instances.
func TestColocatedFixtureRunsBE(t *testing.T) {
	f := colocatedEngine(t)
	for _, v := range f.e.MachineViews(nil) {
		if v.Resident == 0 {
			t.Errorf("pod %s hosts no BE instance after the warm-up", v.Name)
		}
	}
}
