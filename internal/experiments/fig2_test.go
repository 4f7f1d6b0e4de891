package experiments

import (
	"math"
	"sort"
	"testing"

	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// soloSojourns returns every component's solo sojourn at load fraction
// load of the service's max load.
func soloSojourns(svc *workload.Service, load float64) map[string]queueing.Sojourn {
	sj := make(map[string]queueing.Sojourn, len(svc.Components))
	for _, c := range svc.Components {
		sj[c.Name] = c.Station.At(load*svc.MaxLoadQPS, 1.1, 1.2, 1)
	}
	return sj
}

// seedE2EP99 is the per-draw estimator e2eP99Into replaced, the
// differential oracle: Node.Latency walked once per draw with one
// Sojourn.Sample per visited stage, then a full sort and the interpolated
// quantile.
func seedE2EP99(svc *workload.Service, sj map[string]queueing.Sojourn, n int, r *sim.RNG) float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = svc.Graph.Latency(func(c string) float64 { return sj[c].Sample(r) })
	}
	sort.Float64s(buf)
	return sim.QuantileSorted(buf, 0.99)
}

// e2eServices is every catalog service (chains, and SNMS's fan-out) and
// the shipped custom DAG.
func e2eServices(t *testing.T) []*workload.Service {
	t.Helper()
	spec, err := workload.LoadSpec("../../examples/scenarios/flash-crowd.json")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := spec.BuildService()
	if err != nil {
		t.Fatal(err)
	}
	return append(workload.Services(), custom)
}

// checkE2EP99 holds one e2eP99Into call through sc to the per-draw
// oracle: the same estimate bit for bit, and the RNG left at the same
// stream position.
func checkE2EP99(t *testing.T, sc *e2eScratch, svc *workload.Service, n int, seed uint64) {
	t.Helper()
	sj := soloSojourns(svc, 0.6)
	ref := sim.NewRNG(seed).Fork("e2e")
	want := seedE2EP99(svc, sj, n, ref)
	rng := sim.NewRNG(seed).Fork("e2e")
	got := e2eP99Into(sc, svc, sj, n, rng)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s n=%d: e2eP99Into = %v, per-draw oracle = %v", svc.Name, n, got, want)
	}
	if a, b := ref.Uint64(), rng.Uint64(); a != b {
		t.Fatalf("%s n=%d: RNG stream diverged after the estimate", svc.Name, n)
	}
}

// TestE2EP99MatchesSeedImplementation holds the batched estimator, from a
// fresh scratch, to the per-draw oracle on every catalog service and the
// custom DAG, from one sample to several sampler chunks.
func TestE2EP99MatchesSeedImplementation(t *testing.T) {
	for _, svc := range e2eServices(t) {
		for _, n := range []int{1, 2, 100, 1000, 6000} {
			var sc e2eScratch
			checkE2EP99(t, &sc, svc, n, 2020)
		}
	}
}

// TestE2EP99ReusedScratchMatchesSeedImplementation threads one scratch
// through changing services and sample counts, so a new plan, growth,
// reuse at a smaller n and the 1-sample edge all see stale contents from
// the previous call, and still match the per-draw oracle. With no
// samples the estimate is 0 and the stream is untouched.
func TestE2EP99ReusedScratchMatchesSeedImplementation(t *testing.T) {
	var sc e2eScratch
	for _, svc := range e2eServices(t) {
		for _, n := range []int{1000, 1, 6000, 100} {
			checkE2EP99(t, &sc, svc, n, 99)
		}
		rng := sim.NewRNG(1)
		before := *rng
		if p := e2eP99Into(&sc, svc, soloSojourns(svc, 0.6), 0, rng); p != 0 {
			t.Fatalf("%s: n=0 estimate = %v, want 0", svc.Name, p)
		}
		if *rng != before {
			t.Fatalf("%s: n=0 estimate advanced the RNG", svc.Name)
		}
	}
}

// TestE2EP99AtLeastSingleStage: appending a stage to a chain raises its
// end-to-end p99.
func TestE2EP99AtLeastSingleStage(t *testing.T) {
	s := workload.ECommerce().Components[1].Station
	sj := map[string]queueing.Sojourn{"a": s.Solo(0.5 * s.MaxRate()), "b": s.Solo(0.5 * s.MaxRate())}
	one := &workload.Service{Graph: &workload.Node{Comp: "a"}}
	two := &workload.Service{Graph: &workload.Node{Comp: "a", Children: []*workload.Node{{Comp: "b"}}}}
	var sc e2eScratch
	p1 := e2eP99Into(&sc, one, sj, 20000, sim.NewRNG(7))
	p2 := e2eP99Into(&sc, two, sj, 20000, sim.NewRNG(7))
	if p2 <= p1 {
		t.Fatalf("two stages should have a higher p99: %v vs %v", p2, p1)
	}
}

// TestE2EP99ZeroAllocs pins the steady-state estimate the figures sweep
// to zero heap allocations: the scratch keeps the plan, the sampler and
// the buffers, and the quantile comes from in-place selection.
func TestE2EP99ZeroAllocs(t *testing.T) {
	svc := workload.SNMS()
	sj := soloSojourns(svc, 0.7)
	rng := sim.NewRNG(2020).Fork("alloc-e2e")
	var sc e2eScratch
	e2eP99Into(&sc, svc, sj, 6000, rng)
	allocs := testing.AllocsPerRun(20, func() {
		e2eP99Into(&sc, svc, sj, 6000, rng)
	})
	if allocs != 0 {
		t.Fatalf("e2eP99Into allocates %.1f per op at steady state, want 0", allocs)
	}
}
