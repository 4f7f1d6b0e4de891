package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/engine"
	"rhythm/internal/interference"
	"rhythm/internal/loadgen"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/trace"
	"rhythm/internal/workload"
)

func init() {
	register(Experiment{ID: "ablation-contribution", Title: "Contribution definition ablation: Eq. 4 product vs single factors", Run: ablationContribution})
	register(Experiment{ID: "ablation-period", Title: "Controller period ablation: 0.5s / 2s / 8s", Run: ablationPeriod})
	register(Experiment{ID: "ablation-pairing", Title: "Tracer pairing ablation: mean invariance vs per-request error", Run: ablationPairing})
	register(Experiment{ID: "ablation-isolation", Title: "Isolation mechanisms ablation: §4 mechanisms on vs off", Run: ablationIsolation})
}

// ablationContribution compares how well alternative contribution
// definitions track measured sensitivity (the Fig. 7 validation): the
// paper's product rho*P*V against each factor alone.
func ablationContribution(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	svc := sys.Service
	n := 8000
	if ctx.Opts.Quick {
		n = 4000
	}
	rng := ctx.ScratchRNG("ablation-contribution")
	var sc e2eScratch
	const load = 0.6

	soloSJ := make(map[string]queueing.Sojourn)
	for _, c := range svc.Components {
		soloSJ[c.Name] = c.Station.Solo(load * svc.MaxLoadQPS)
	}
	solo := e2eP99Into(&sc, svc, soloSJ, n, rng)

	// Measured sensitivity per pod under the mixed BE group.
	var sens []float64
	defs := map[string][]float64{"product": {}, "mean-only": {}, "cov-only": {}, "rho-only": {}}
	for _, c := range svc.Components {
		sum := 0.0
		srcs := []string{"stream_dram(big)", "stream_llc(big)", "CPU_stress", "iperf"}
		for _, src := range srcs {
			p99 := staticColocationP99(&sc, svc, c.Name, src, load, n, rng)
			sum += (p99 - solo) / solo
		}
		sens = append(sens, sum/float64(len(srcs)))
		contrib, _ := sys.Profile.Contribution(c.Name)
		defs["product"] = append(defs["product"], contrib.Raw)
		defs["mean-only"] = append(defs["mean-only"], contrib.Weight)
		defs["cov-only"] = append(defs["cov-only"], contrib.CoV)
		defs["rho-only"] = append(defs["rho-only"], contrib.Rho)
	}

	t := &Table{
		ID:      "ablation-contribution",
		Title:   "Pearson correlation between contribution definition and measured sensitivity",
		Columns: []string{"definition", "pearson(sensitivity)"},
	}
	var productR float64
	for _, name := range []string{"product", "mean-only", "cov-only", "rho-only"} {
		r := sim.Pearson(defs[name], sens)
		if name == "product" {
			productR = r
		}
		t.AddRow(name, f3(r))
	}
	t.Check(!(productR <= 0), "the Eq. 4 product correlates positively with sensitivity (r=%.2f)", productR)
	return t, nil
}

// ablationPeriod sweeps the controller period (the paper fixes 2 s as the
// efficiency/overhead tradeoff, §3.5.2) and reports throughput and safety.
func ablationPeriod(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	dur := 100 * time.Second
	warm := 25 * time.Second
	if ctx.Opts.Quick {
		dur, warm = 60*time.Second, 15*time.Second
	}
	t := &Table{
		ID:      "ablation-period",
		Title:   "Controller period vs BE throughput and SLA safety (E-commerce, 65% load, wordcount)",
		Columns: []string{"period", "BE throughput", "EMU", "worst p99/SLA", "violations", "kills"},
	}
	for _, period := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		e, err := engine.New(engine.Config{
			Service:       sys.Service,
			Pattern:       loadgen.Constant(0.65),
			SLA:           sys.SLA,
			Policy:        sys.Policy,
			BETypes:       []bejobs.Type{bejobs.Wordcount},
			Seed:          ctx.Opts.Seed + 31,
			ControlPeriod: period,
			Warmup:        warm,
		})
		if err != nil {
			return nil, err
		}
		st, err := e.Run(dur)
		if err != nil {
			return nil, err
		}
		t.AddRow(period.String(), f3(st.MeanBEThroughput()), f3(st.MeanEMU()),
			f3(st.WorstP99/sys.SLA), fmt.Sprintf("%d", st.Violations),
			fmt.Sprintf("%d", st.TotalKills()))
	}
	t.Note("the paper fixes 2s as the monitoring-overhead vs responsiveness tradeoff (§3.5.2)")
	return t, nil
}

// ablationPairing quantifies the §3.3 design decision to consume sojourn
// *means*: under non-blocking interleaving with persistent connections,
// per-request pairings err, means stay exact.
func ablationPairing(ctx *Context) (*Table, error) {
	svc := workload.ECommerce()
	topo := trace.NewTopology(svc)
	sojourns := make(map[string]queueing.Sojourn)
	for _, c := range svc.Components {
		sojourns[c.Name] = c.Station.Solo(0.5 * svc.MaxLoadQPS)
	}
	requests := 800
	if ctx.Opts.Quick {
		requests = 400
	}
	t := &Table{
		ID:      "ablation-pairing",
		Title:   "Tracer mean-sojourn invariance under request interleaving",
		Columns: []string{"scenario", "pod", "true mean", "tracer mean", "rel err"},
	}
	worst := 0.0
	for _, sc := range []struct {
		name       string
		rate       float64
		threads    int
		persistent bool
	}{
		{"blocking (low rate)", 2, 8, false},
		{"non-blocking (high rate)", 900, 2, false},
		{"non-blocking + persistent TCP", 900, 2, true},
	} {
		events, truth, err := trace.Generate(topo, sojourns, trace.GenOptions{
			Requests:    requests,
			Rate:        sc.rate,
			Threads:     sc.threads,
			Persistent:  sc.persistent,
			NoiseEvents: 100,
			Seed:        ctx.Opts.Seed + 5,
		})
		if err != nil {
			return nil, err
		}
		res, err := trace.Analyze(events, topo.Pods, svc.Graph.Comp)
		if err != nil {
			return nil, err
		}
		for _, c := range svc.Components {
			want := truth.MeanSojourn(c.Name)
			got := res.PerPod[c.Name].MeanPerRequest
			rel := 0.0
			if want > 0 {
				rel = (got - want) / want
				if rel < 0 {
					rel = -rel
				}
			}
			if rel > worst {
				worst = rel
			}
			t.AddRow(sc.name, c.Name, ms(want), ms(got), fmt.Sprintf("%.2e", rel))
		}
	}
	t.Check(!(worst > 1e-5), "worst relative mean error %.2e — §3.3: means are invariant under pairing ambiguity", worst)
	return t, nil
}

// ablationIsolation removes the §4 isolation mechanisms and measures the
// cost: the same Rhythm policy co-locating without cpuset/CAT/qdisc
// protection suffers more interference per BE core, so it must hold less
// BE work for the same SLA.
func ablationIsolation(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	dur, warm := 100*time.Second, 25*time.Second
	if ctx.Opts.Quick {
		dur, warm = 60*time.Second, 15*time.Second
	}
	t := &Table{
		ID:      "ablation-isolation",
		Title:   "Isolation mechanisms on vs off (E-commerce, 65% load, wordcount)",
		Columns: []string{"isolation", "BE throughput", "EMU", "worst p99/SLA", "violations"},
	}
	var with, without float64
	for _, mode := range []string{"on", "off"} {
		cfg := engine.Config{
			Service: sys.Service,
			Pattern: loadgen.Constant(0.65),
			SLA:     sys.SLA,
			Policy:  sys.Policy,
			BETypes: []bejobs.Type{bejobs.Wordcount},
			Seed:    ctx.Opts.Seed + 41,
			Warmup:  warm,
		}
		if mode == "off" {
			cfg.Model = interference.Unisolated()
		}
		e, err := engine.New(cfg)
		if err != nil {
			return nil, err
		}
		st, err := e.Run(dur)
		if err != nil {
			return nil, err
		}
		if mode == "on" {
			with = st.MeanBEThroughput()
		} else {
			without = st.MeanBEThroughput()
		}
		t.AddRow(mode, f3(st.MeanBEThroughput()), f3(st.MeanEMU()),
			f3(st.WorstP99/sys.SLA), fmt.Sprintf("%d", st.Violations))
	}
	t.Check(!(with <= without), "isolation lets the controller hold more BE work at equal safety: %.3f vs %.3f",
		with, without)
	return t, nil
}
