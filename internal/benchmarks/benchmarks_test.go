package benchmarks

import (
	"testing"

	"rhythm/internal/obs"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// The benchmark bodies live in the non-test package file so that
// cmd/rhythm-bench can run them through testing.Benchmark; these wrappers
// expose them to `go test -bench`.

func BenchmarkTailTrackerAdd(b *testing.B)          { TailTrackerAdd(b) }
func BenchmarkTailTrackerAddP99(b *testing.B)       { TailTrackerAddP99(b) }
func BenchmarkTailTrackerWindowP99(b *testing.B)    { TailTrackerWindowP99(b) }
func BenchmarkEngineTick(b *testing.B)              { EngineTick(b) }
func BenchmarkEngineTickInflation(b *testing.B)     { EngineTickInflation(b) }
func BenchmarkEngineTickColo(b *testing.B)          { EngineTickColo(b) }
func BenchmarkEngineControlPeriodColo(b *testing.B) { EngineControlPeriodColo(b) }
func BenchmarkFleetTick(b *testing.B)               { FleetTick(b) }
func BenchmarkPathP99(b *testing.B)                 { PathP99(b) }
func BenchmarkSampleKernel(b *testing.B)            { SampleKernel(b) }
func BenchmarkUniformKernel(b *testing.B)           { UniformKernel(b) }
func BenchmarkObsDisabled(b *testing.B)             { ObsDisabled(b) }

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
			t.Errorf("pod %s hosts no BE instance after the warm-up", v.Pod)
		}
	}
}

// TestPathP99ZeroAllocs pins the steady-state path-tail estimate — the
// exact loop PathP99 benchmarks — to zero heap allocations once the
// scratch buffer has grown: sampling is stack-batched (sim.SumLognormals)
// and the quantile comes from in-place selection, so a profiling sweep's
// per-estimate cost is pure compute.
func TestPathP99ZeroAllocs(t *testing.T) {
	svc := workload.ECommerce()
	stages := make([]queueing.Sojourn, 0, len(svc.Components))
	for _, c := range svc.Components {
		stages = append(stages, c.Station.At(0.7*svc.MaxLoadQPS, 1.1, 1.2, 1))
	}
	rng := sim.NewRNG(2020).Fork("alloc-pathp99")
	const n = 1000
	_, buf := queueing.PathP99Into(nil, stages, n, rng)
	allocs := testing.AllocsPerRun(50, func() {
		_, buf = queueing.PathP99Into(buf, stages, n, rng)
	})
	if allocs != 0 {
		t.Fatalf("PathP99Into allocates %.1f per op at steady state, want 0", allocs)
	}
}
