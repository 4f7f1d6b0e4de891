package benchmarks

import (
	"fmt"
	"testing"

	"rhythm/internal/obs"
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
func BenchmarkEngineControlPeriodRamp(b *testing.B) { EngineControlPeriodRamp(b) }
func BenchmarkStationAtLanes(b *testing.B) {
	for _, c := range []int{8, 64, 172} {
		b.Run(fmt.Sprint(c), StationAtLanes(c))
	}
}
func BenchmarkFleetTick(b *testing.B)       { FleetTick(b) }
func BenchmarkSampleKernel(b *testing.B)    { SampleKernel(b) }
func BenchmarkSampleFilter(b *testing.B)    { SampleFilter(b) }
func BenchmarkUniformKernel(b *testing.B)   { UniformKernel(b) }
func BenchmarkFindSlacklimits(b *testing.B) { FindSlacklimits(b) }
func BenchmarkObsDisabled(b *testing.B)     { ObsDisabled(b) }

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
