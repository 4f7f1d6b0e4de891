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

// e2eP99Into samples the service's end-to-end p99 with the given
// per-component sojourn distributions, writing the n latency samples into
// buf (grown only when too small) and returning the possibly-grown buffer
// for the next call, so a figure's sweep over loads and interference
// sources allocates one sample buffer total. The per-component lognormal
// parameters are flattened out of the Sojourn values once per call, and
// the tail is computed by O(n) selection; the draws and the estimate are
// bit-identical to the seed's per-sample Sojourn.Sample + copy/sort
// Quantile (frozen contract, sim.RNG.NormFloat64).
func e2eP99Into(buf []float64, svc *workload.Service, sj map[string]queueing.Sojourn, n int, rng *sim.RNG) (float64, []float64) {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	params := make(map[string][2]float64, len(sj))
	for c, s := range sj {
		mu, sg := s.LogParams()
		params[c] = [2]float64{mu, sg}
	}
	sample := func(c string) float64 {
		p := params[c]
		return math.Exp(p[0] + p[1]*rng.NormFloat64())
	}
	for i := range buf {
		buf[i] = svc.Graph.Latency(sample)
	}
	return sim.SelectQuantile(buf, 0.99), buf
}

// staticColocationP99 computes the service p99 when one component is
// statically co-located with an interference source (§2's methodology: no
// controller, pinning only, shared LLC/DRAM/network). buf is the shared
// sample scratch (see e2eP99Into).
func staticColocationP99(buf []float64, svc *workload.Service, target string, src string,
	load float64, n int, rng *sim.RNG) (float64, []float64) {
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
	return e2eP99Into(buf, svc, sj, n, rng)
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
	var buf []float64 // shared sample scratch across the whole sweep

	// increase[src][pod] accumulates the mean increase for the notes.
	increase := map[string]map[string]float64{}
	for _, cs := range cases {
		solo := map[float64]float64{}
		for _, load := range loads {
			sj := make(map[string]queueing.Sojourn)
			for _, c := range cs.svc.Components {
				sj[c.Name] = c.Station.Solo(load * cs.svc.MaxLoadQPS)
			}
			solo[load], buf = e2eP99Into(buf, cs.svc, sj, n, rng)
		}
		for _, pod := range cs.pods {
			for _, src := range fig2Sources {
				row := []string{cs.svc.Name, pod, src}
				sum := 0.0
				for _, load := range loads {
					var p99 float64
					p99, buf = staticColocationP99(buf, cs.svc, pod, src, load, n, rng)
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
		status := "OK"
		if h <= l {
			status = "MISMATCH"
		}
		t.Note("%s: %s (+%.0f%%) vs %s (+%.0f%%) — paper: %s more sensitive [%s]",
			src, hi, 100*h, lo, 100*l, hi, status)
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
	var buf []float64
	const load = 0.6

	soloSJ := make(map[string]queueing.Sojourn)
	for _, c := range svc.Components {
		soloSJ[c.Name] = c.Station.Solo(load * svc.MaxLoadQPS)
	}
	solo, buf := e2eP99Into(buf, svc, soloSJ, n, rng)

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
				var p99 float64
				p99, buf = staticColocationP99(buf, svc, c.Name, src, load, n, rng)
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
		status := "OK"
		if r <= 0 {
			status = "MISMATCH"
		}
		t.Note("Pearson(contribution, sensitivity) under %s = %.2f — paper: positive for every BE [%s]", g, r, status)
	}
	return t, nil
}
