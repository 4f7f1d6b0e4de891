package workload

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"rhythm/internal/sim"
)

// TestPlanMatchesLatency holds the batched combine to the per-draw
// Node.Latency walk: on chains, fan-outs and random mixed graphs (up to
// four children per node, nested four deep, the shapes scenario specs
// allow beyond the built-in services' single-child chains), on every
// catalog service and on the shipped custom DAG, over draw matrices that
// mix in ±0, ±Inf and NaN. With two or more children the chain's
// left-to-right association and the parallel max's strict > both show in
// the bits. The one latitude is a NaN's payload: which of two NaN
// addends a sum keeps is the operand order the compiler gives a
// commutative add, in either function, so a NaN need only be a NaN.
// Latency's sojourn callback reads the stage values in its own visiting
// order, so the plan's stage order and names are checked too. One plan
// is evaluated at growing and shrinking draw counts, so Eval reuses
// scratch another call left stale.
func TestPlanMatchesLatency(t *testing.T) {
	r := sim.NewRNG(2020).Fork("plan")
	type graph struct {
		name string
		root *Node
	}
	graphs := []graph{
		{"chain", chain("a", "b", "c", "d")},
		{"fan-out", &Node{Comp: "f", Parallel: true, Children: []*Node{{Comp: "a"}, {Comp: "b"}, {Comp: "c"}}}},
		{"repeat", &Node{Comp: "a", Children: []*Node{{Comp: "b"}, {Comp: "a", Parallel: true, Children: []*Node{{Comp: "b"}, {Comp: "b"}}}}}},
	}
	for _, svc := range Services() {
		graphs = append(graphs, graph{svc.Name, svc.Graph})
	}
	spec, err := LoadSpec(filepath.Join(examplesDir, "flash-crowd.json"))
	if err != nil {
		t.Fatal(err)
	}
	custom, err := spec.BuildService()
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, graph{"flash-crowd", custom.Graph})
	stages := 0
	var build func(depth int) *Node
	build = func(depth int) *Node {
		node := &Node{Comp: fmt.Sprint(stages), Parallel: r.Float64() < 0.4}
		stages++
		if depth > 1 && r.Float64() < 0.8 {
			for c := 1 + r.Intn(4); c > 0; c-- {
				node.Children = append(node.Children, build(depth-1))
			}
		}
		return node
	}
	for trial := 0; trial < 200; trial++ {
		stages = 0
		graphs = append(graphs, graph{fmt.Sprintf("mixed-%d", trial), build(1 + r.Intn(4))})
	}

	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, gr := range graphs {
		name, g := gr.name, gr.root
		plan := NewPlan(g)
		k := len(plan.Stages())
		for _, draws := range []int{1 + r.Intn(100), 150, 3} {
			vals := make([]float64, draws*k)
			for i := range vals {
				vals[i] = math.Exp(-6 + 4*r.Float64())
				if r.Float64() < 0.02 {
					vals[i] = special[r.Intn(len(special))]
				}
			}
			got := make([]float64, draws)
			plan.Eval(got, vals)
			for d := range got {
				s := 0
				want := g.Latency(func(c string) float64 {
					if plan.Stages()[s] != c {
						t.Fatalf("%s: stage %d is %q, Latency visits %q", name, s, plan.Stages()[s], c)
					}
					s++
					return vals[d*k+s-1]
				})
				if s != k {
					t.Fatalf("%s: Latency visits %d stages, plan has %d", name, s, k)
				}
				if math.Float64bits(got[d]) != math.Float64bits(want) && !(math.IsNaN(got[d]) && math.IsNaN(want)) {
					t.Fatalf("%s draws %d draw %d: Eval %x, Latency %x", name, draws, d, math.Float64bits(got[d]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestPlanP99MatchesLognormalQuantile is a statistical oracle for the one
// end-to-end sampler, the draws of sim.Sampler combined through a Plan:
// for a one-stage plan the sample p99 over 2·10⁵ draws must match the
// lognormal's closed-form 0.99 quantile. At this draw count the sample
// quantile's standard error is below 0.8% of it; the bound is 3%, at a
// fixed seed.
func TestPlanP99MatchesLognormalQuantile(t *testing.T) {
	const n = 200000
	plan := NewPlan(&Node{Comp: "only"})
	for _, ln := range []sim.Lognormal{sim.NewLognormal(0.004, 0.5), sim.NewLognormal(1, 1.2)} {
		mu, sigma := ln.LogParams()
		vals := make([]float64, n)
		var sm sim.Sampler
		sm.DrawsBetween(vals, []float64{mu}, []float64{sigma}, math.Inf(-1), math.Inf(1), sim.NewRNG(2020))
		lats := make([]float64, n)
		plan.Eval(lats, vals)
		got, want := sim.SelectQuantile(lats, 0.99), ln.Quantile(0.99)
		if math.Abs(got/want-1) > 0.03 {
			t.Errorf("lognormal(mean %v, cv %v): plan p99 %v, closed form %v", ln.Mean(), ln.CV(), got, want)
		}
	}
}
