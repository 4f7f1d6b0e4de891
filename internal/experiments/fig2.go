package experiments

import (
	"math"

	"rhythm/internal/bejobs"
	"rhythm/internal/cluster"
	"rhythm/internal/interference"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func init() {
	register(Experiment{ID: "fig2", Title: "Impact of interference on the 99th percentile latency of LC components (Fig. 2a/2b)", Run: fig2})
	register(Experiment{ID: "fig7", Title: "Servpod sensitivity vs contribution (Fig. 7)", Run: fig7})
}

// fig2Sources are the §2 interference groups, in figure order.
var fig2Sources = []string{
	"stream_dram(big)", "stream_dram(small)",
	"stream_llc(big)", "stream_llc(small)",
	"DVFS", "iperf", "CPU_stress",
}

// sourceBE maps a Fig. 2 interference group to its BE job; DVFS has none.
func sourceBE(src string) (bejobs.Type, bool) {
	switch src {
	case "stream_dram(big)":
		return bejobs.StreamDRAMBig, true
	case "stream_dram(small)":
		return bejobs.StreamDRAMSmall, true
	case "stream_llc(big)":
		return bejobs.StreamLLCBig, true
	case "stream_llc(small)":
		return bejobs.StreamLLCSmall, true
	case "iperf":
		return bejobs.Iperf, true
	case "CPU_stress":
		return bejobs.CPUStress, true
	default:
		return "", false
	}
}

// e2eScratch is the end-to-end p99 estimator's kept state: the plan of
// the service graph it last sampled, the per-stage lognormal parameters,
// the sampler and the draw and latency buffers, all grown to the largest
// call so far, so that a figure's sweep over loads and interference
// sources allocates once per service. The zero value is ready to use.
type e2eScratch struct {
	graph      *workload.Node
	plan       *workload.Plan
	mu, sigma  []float64
	sampler    sim.Sampler
	vals, lats []float64
}

// e2eP99Into samples the service's end-to-end p99 with the given
// per-component sojourn distributions from n draws of rng, through sc:
// the engine's sampler and plan combine (the call graph's stages in
// Node.Latency's visiting order, one normal per stage per draw in the
// frozen stream order), then an O(n) selection of the p99. Every latency,
// and so the estimate, is bit-identical to walking Node.Latency per draw
// with one Sojourn.Sample per stage and taking the quantile of the
// sorted samples.
func e2eP99Into(sc *e2eScratch, svc *workload.Service, sj map[string]queueing.Sojourn, n int, rng *sim.RNG) float64 {
	if sc.graph != svc.Graph {
		sc.graph, sc.plan = svc.Graph, workload.NewPlan(svc.Graph)
		k := len(sc.plan.Stages())
		sc.mu, sc.sigma = make([]float64, k), make([]float64, k)
	}
	for s, c := range sc.plan.Stages() {
		sc.mu[s], sc.sigma[s] = sj[c].LogParams()
	}
	m := n * len(sc.mu)
	if cap(sc.vals) < m {
		sc.vals = make([]float64, m)
	}
	if cap(sc.lats) < n {
		sc.lats = make([]float64, n)
	}
	vals, lats := sc.vals[:m], sc.lats[:n]
	sc.sampler.DrawsBetween(vals, sc.mu, sc.sigma, math.Inf(-1), math.Inf(1), rng)
	sc.plan.Eval(lats, vals)
	return sim.SelectQuantile(lats, 0.99)
}

// staticColocationP99 computes the service p99 when one component is
// statically co-located with an interference source (§2's methodology: no
// controller, pinning only, shared LLC/DRAM/network), sampled through sc.
func staticColocationP99(sc *e2eScratch, svc *workload.Service, target string, src string,
	load float64, n int, rng *sim.RNG) float64 {
	model := interference.Unisolated()
	spec := cluster.DefaultSpec()
	sj := make(map[string]queueing.Sojourn, len(svc.Components))
	for _, c := range svc.Components {
		qps := load * svc.MaxLoadQPS
		if c.Name != target {
			sj[c.Name] = c.Station.Solo(qps)
			continue
		}
		inflate, cvInflate, freq := 1.0, 1.0, 1.0
		if be, ok := sourceBE(src); ok {
			spec2 := spec
			beSpec := bejobs.MustLookup(be)
			demand := beSpec.PerCore.Scale(float64(beSpec.SoloCores))
			press := model.Pressure(spec2, c.DemandAt(load), demand)
			inflate, cvInflate = model.Inflation(c, press)
		} else {
			// DVFS: run the component's cores at the lowest operating
			// point, as §2 does with the frequency governor.
			freqInfl := interference.FreqInflation(c, spec.MinGHz, spec.BaseGHz)
			inflate = freqInfl
		}
		sj[c.Name] = c.Station.At(qps, inflate, cvInflate, freq)
	}
	return e2eP99Into(sc, svc, sj, n, rng)
}

// fig2 characterizes the inconsistent interference tolerance of LC
// components: per component x interference source x load, the increase in
// service p99 relative to the solo run.
func fig2(ctx *Context) (*Table, error) {
	n := 20000
	if ctx.Opts.Quick {
		n = 6000
	}
	t := &Table{
		ID:      "fig2",
		Title:   "99th-percentile latency increase under static co-location (% over solo)",
		Columns: []string{"service", "component", "interference", "20%", "40%", "60%", "80%"},
	}
	loads := []float64{0.2, 0.4, 0.6, 0.8}

	type pair struct {
		svc  *workload.Service
		pods []string
	}
	cases := []pair{
		{workload.Redis(), []string{"Master", "Slave"}},
		{workload.ECommerce(), []string{"Tomcat", "MySQL"}},
	}
	rng := ctx.ScratchRNG("fig2")
	var sc e2eScratch

	// increase[src][pod] accumulates the mean increase for the notes.
	increase := map[string]map[string]float64{}
	for _, cs := range cases {
		solo := map[float64]float64{}
		for _, load := range loads {
			sj := make(map[string]queueing.Sojourn)
			for _, c := range cs.svc.Components {
				sj[c.Name] = c.Station.Solo(load * cs.svc.MaxLoadQPS)
			}
			solo[load] = e2eP99Into(&sc, cs.svc, sj, n, rng)
		}
		for _, pod := range cs.pods {
			for _, src := range fig2Sources {
				row := []string{cs.svc.Name, pod, src}
				sum := 0.0
				for _, load := range loads {
					p99 := staticColocationP99(&sc, cs.svc, pod, src, load, n, rng)
					inc := (p99 - solo[load]) / solo[load]
					sum += inc
					row = append(row, pct(inc))
				}
				if increase[src] == nil {
					increase[src] = map[string]float64{}
				}
				increase[src][pod] = sum / float64(len(loads))
				t.AddRow(row...)
			}
		}
	}

	// Headline orderings from §2.
	note := func(src, hi, lo string) {
		h, l := increase[src][hi], increase[src][lo]
		t.Check(!(h <= l), "%s: %s (+%.0f%%) vs %s (+%.0f%%) — paper: %s more sensitive",
			src, hi, 100*h, lo, 100*l, hi)
	}
	note("stream_llc(big)", "Master", "Slave")
	note("stream_dram(big)", "Master", "Slave")
	note("CPU_stress", "Master", "Slave")
	note("stream_dram(big)", "MySQL", "Tomcat")
	note("stream_llc(big)", "MySQL", "Tomcat")
	note("iperf", "MySQL", "Tomcat")
	note("DVFS", "Tomcat", "MySQL")
	return t, nil
}

// fig7 plots contribution (x) against sensitivity (y): the validation that
// higher-contribution Servpods are more interference-sensitive whatever
// the BE is.
func fig7(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	n := 12000
	if ctx.Opts.Quick {
		n = 5000
	}
	t := &Table{
		ID:      "fig7",
		Title:   "Servpod sensitivity vs contribution (E-commerce, load 60%)",
		Columns: []string{"servpod", "contribution", "mixed", "stream-dram", "CPU-stress", "stream-llc"},
	}
	svc := sys.Service
	rng := ctx.ScratchRNG("fig7")
	var sc e2eScratch
	const load = 0.6

	soloSJ := make(map[string]queueing.Sojourn)
	for _, c := range svc.Components {
		soloSJ[c.Name] = c.Station.Solo(load * svc.MaxLoadQPS)
	}
	solo := e2eP99Into(&sc, svc, soloSJ, n, rng)

	groups := map[string][]string{
		"mixed":       {"stream_dram(big)", "stream_llc(big)", "CPU_stress", "iperf"},
		"stream-dram": {"stream_dram(big)"},
		"CPU-stress":  {"CPU_stress"},
		"stream-llc":  {"stream_llc(big)"},
	}
	order := []string{"mixed", "stream-dram", "CPU-stress", "stream-llc"}

	var contribs []float64
	sens := map[string][]float64{}
	for _, c := range svc.Components {
		contrib, _ := sys.Profile.Contribution(c.Name)
		contribs = append(contribs, contrib.Normalized)
		row := []string{c.Name, f3(contrib.Normalized)}
		for _, g := range order {
			sum := 0.0
			for _, src := range groups[g] {
				p99 := staticColocationP99(&sc, svc, c.Name, src, load, n, rng)
				sum += (p99 - solo) / solo
			}
			v := sum / float64(len(groups[g]))
			sens[g] = append(sens[g], v)
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	for _, g := range order {
		r := sim.Pearson(contribs, sens[g])
		t.Check(!(r <= 0), "Pearson(contribution, sensitivity) under %s = %.2f — paper: positive for every BE", g, r)
	}
	return t, nil
}
