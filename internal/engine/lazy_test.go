package engine

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// lazyPlan builds the plan of a k-node call graph: a chain (each node's
// child is the next one), a fan-out (the root's children are every other
// node, taken in parallel), or, with mixed, a tree whose shape and
// parallel flags come from r.
func lazyPlan(k int, fanout, mixed bool, r *sim.RNG) *workload.Plan {
	nodes := make([]*workload.Node, k)
	for i := range nodes {
		nodes[i] = &workload.Node{Comp: strconv.Itoa(i)}
	}
	for i := 1; i < k; i++ {
		parent := i - 1
		switch {
		case mixed:
			parent = r.Intn(i)
			nodes[parent].Parallel = r.Float64() < 0.5
		case fanout:
			parent = 0
			nodes[0].Parallel = true
		}
		nodes[parent].Children = append(nodes[parent].Children, nodes[i])
	}
	return workload.NewPlan(nodes[0])
}

// FuzzLazyCutoff holds the lazy sampling pass's certificate to the plans
// it combines, chain, fan-out and mixed: for stage parameters and a bound
// τ from the fuzzer, the cutoff of either mode (one step, and refined),
// from several starting points, must give every row whose normals are at
// most the cutoff a plan latency (Plan.Eval over exp(mu + sigma·z)) below
// τ — the rows at the cutoff itself, and random rows below it. Then, over
// a tick's 80 draws, the rows a lazy tick skips, recomputed through a
// replay, must each have a latency below τ, and with the rows it computed
// they must be the tick's latencies exactly.
func FuzzLazyCutoff(f *testing.F) {
	f.Add(uint64(2020), uint8(4), uint8(0), -5.0, 0.4, 0.9)
	f.Add(uint64(7), uint8(5), uint8(1), -3.0, 0.8, 0.5)
	f.Add(uint64(9), uint8(6), uint8(2), -6.0, 0.05, 1.4)
	f.Add(uint64(11), uint8(1), uint8(0), 0.0, 0.0, 1.0)
	f.Add(uint64(13), uint8(3), uint8(0), -700.0, 2.0, 0.9)
	f.Fuzz(func(t *testing.T, seed uint64, kb, shape uint8, mu0, sigma0, frac float64) {
		if math.IsNaN(mu0) || math.IsInf(mu0, 0) || math.Abs(mu0) > 800 || !(math.Abs(sigma0) <= 4) {
			return
		}
		k := int(kb%8) + 1
		r := sim.NewRNG(seed)
		plan := lazyPlan(k, shape%3 == 1, shape%3 == 2, r)
		s := &soaState{plan: plan, cutRow: make([]float64, k)}
		mu, sigma := make([]float64, k), make([]float64, k)
		for j := range mu {
			mu[j] = mu0 + 2*r.Float64() - 1
			sigma[j] = math.Abs(sigma0) * (0.5 + r.Float64())
		}
		latency := func(z []float64) float64 {
			row := make([]float64, k)
			for j := range row {
				row[j] = math.Exp(mu[j] + sigma[j]*z[j])
			}
			var l [1]float64
			plan.Eval(l[:], row)
			return l[0]
		}
		at := func(z float64) []float64 {
			zs := make([]float64, k)
			for j := range zs {
				zs[j] = z
			}
			return zs
		}
		tau := latency(at(z99)) * math.Abs(frac)
		if !(tau > 0) || math.IsInf(tau, 0) {
			return
		}

		var cut float64
		for _, start := range []float64{0, 0.5, z99, 4} {
			for _, refine := range []bool{false, true} {
				c := s.cutoff(mu, sigma, tau, start, refine)
				if c < 0 || math.IsNaN(c) {
					t.Fatalf("start %v refine %v: cutoff %v", start, refine, c)
				}
				if c == 0 {
					continue
				}
				if l := latency(at(c)); !(l < tau) {
					t.Fatalf("start %v refine %v: cutoff %v gives latency %v, tau %v", start, refine, c, l, tau)
				}
				for range 8 {
					z := make([]float64, k)
					for j := range z {
						z[j] = c - 6*r.Float64()
					}
					if l := latency(z); !(l < tau) {
						t.Fatalf("cutoff %v: normals %v give latency %v, tau %v", c, z, l, tau)
					}
				}
				cut = max(cut, c)
			}
		}

		// One tick's draws, lazily and eagerly, from the same stream.
		var sm sim.Sampler
		all := make([]float64, SamplesPerTick*k)
		sim.LognormalDraws(all, mu, sigma, sim.NewRNG(seed))
		want := make([]float64, SamplesPerTick)
		plan.Eval(want, all)
		vals := make([]float64, SamplesPerTick*k)
		got := make([]float64, 0, SamplesPerTick)
		m := sm.DrawsBetween(vals, mu, sigma, cut, math.Inf(1), sim.NewRNG(seed))
		got = append(got, make([]float64, m)...)
		plan.Eval(got, vals)
		p := sm.DrawsBetween(vals, mu, sigma, 0, cut, sim.NewRNG(seed))
		skipped := make([]float64, p)
		plan.Eval(skipped, vals)
		for _, l := range skipped {
			if !(l < tau) {
				t.Fatalf("cutoff %v: a skipped row has latency %v, tau %v", cut, l, tau)
			}
		}
		got = append(got, skipped...)
		slices.Sort(got)
		slices.Sort(want)
		if len(got) != len(want) {
			t.Fatalf("cutoff %v: %d rows computed and skipped, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cutoff %v: latencies differ from the eager tick's at rank %d: %v vs %v", cut, i, got[i], want[i])
			}
		}
	})
}

// TestLazyDriftKeepsCertificate holds lazyBound's reuse rule to the
// certificate: over stage parameters that drift from tick to tick by
// random steps, small and large, every cutoff lazyBound hands out — kept
// or searched again — must give the plan latency at the cutoff below its
// τ. A reuse rule that ignored the drift would hand out stale cutoffs
// above the root.
func TestLazyDriftKeepsCertificate(t *testing.T) {
	e, err := New(Config{Service: workload.ECommerce(), Pattern: loadgen.Constant(0.7), Seed: 2020})
	if err != nil {
		t.Fatal(err)
	}
	s := &e.soa
	k := len(s.stagePod)
	r := sim.NewRNG(5)
	mu, sigma := make([]float64, k), make([]float64, k)
	for j := range mu {
		mu[j], sigma[j] = -5+r.Float64(), 0.2+0.4*r.Float64()
		s.cutRow[j] = math.Exp(mu[j] + 2.5*sigma[j])
	}
	var l0 [1]float64
	s.plan.Eval(l0[:], s.cutRow)
	s.tauRef = l0[0] / lazyFrac // a cutoff near 2.5
	kept := 0
	for step := 0; step < 4000; step++ {
		// Each tick's parameters sit a random step away from the base
		// ones, so consecutive ticks differ by up to twice the step.
		size := []float64{0.001, 0.003, 0.01, 0.1}[step/25%4]
		for j := range mu {
			s.stageMu[j] = mu[j] + size*(2*r.Float64()-1)
			s.stageSig[j] = sigma[j] + size*(2*r.Float64()-1)/4
		}
		if step%500 == 499 {
			s.tauRef *= 0.8 + 0.4*r.Float64()
		}
		before := s.cut
		tau := e.lazyBound()
		if tau == 0 {
			continue
		}
		if s.cut == before {
			kept++
		}
		for j, m := range s.stageMu {
			s.cutRow[j] = math.Exp(m + s.stageSig[j]*s.cut)
		}
		var l [1]float64
		s.plan.Eval(l[:], s.cutRow)
		if !(l[0] < tau) {
			t.Fatalf("step %d: cutoff %v (kept %v) gives latency %v, tau %v", step, s.cut, s.cut == before, l[0], tau)
		}
	}
	if kept == 0 {
		t.Fatal("no cutoff was kept across ticks")
	}
}
