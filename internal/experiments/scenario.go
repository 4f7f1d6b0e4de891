package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/controller"
	"rhythm/internal/core"
	"rhythm/internal/engine"
	"rhythm/internal/sim"
)

func init() {
	register(Experiment{ID: "scenario", OnDemand: true,
		Title: "Rhythm vs Heracles over a workload-spec file (-scenario; not in `run all`)",
		Run:   scenarioRun})
}

// scenarioRun executes the workload spec handed in through
// Options.Scenario (the CLI's -scenario flag): it materializes the
// spec's service, deploys it through the usual offline phase, composes
// the client-class arrival mix on the scenario's own seed substream, and
// runs the mix under Rhythm and under Heracles. The table reports the
// run-level scorecard plus one row per client class with its SLO and the
// post-warmup p99 each policy delivered against it.
//
// Determinism: the pattern is built once, serially, before the two
// policy runs fan out (each run only reads it); every cell seed is
// content-derived. The table is byte-identical for every -jobs count.
func scenarioRun(ctx *Context) (*Table, error) {
	spec := ctx.Opts.Scenario
	if spec == nil {
		return nil, fmt.Errorf("experiments: the scenario experiment needs a workload spec (rhythm -scenario <file> run scenario)")
	}
	svc, err := spec.BuildService()
	if err != nil {
		return nil, err
	}
	var sys *core.System
	if spec.Service.Catalog != "" {
		// Catalog services share the context's deployment cache with the
		// paper experiments.
		sys, err = ctx.System(svc.Name)
	} else {
		sys, err = core.Deploy(svc, core.Options{
			Profile: ctx.profileOptions(),
			Slack:   ctx.slackOptions(),
			Seed:    ctx.Opts.Seed,
			Jobs:    ctx.Opts.Jobs,
		})
	}
	if err != nil {
		return nil, err
	}
	pattern, err := spec.LoadPattern(sim.SubSeed(ctx.Opts.Seed, "scenario/"+spec.Name))
	if err != nil {
		return nil, err
	}
	betypes, err := spec.BETypes()
	if err != nil {
		return nil, err
	}

	// The candidate policy facing Heracles: the -policy flag wins, then
	// the spec's `policy` field, then "rhythm" — the default reproduces
	// the original Rhythm-vs-Heracles table byte for byte. The instance
	// built here only supplies the display name (and proves the name
	// resolves with this system's thresholds before any run starts); each
	// run constructs its own fresh instance through PolicyNamed.
	candidate := "rhythm"
	if spec.Run.Policy != "" {
		candidate = spec.Run.Policy
	}
	if ctx.Opts.Policy != "" {
		candidate = ctx.Opts.Policy
	}
	candPol, err := controller.New(candidate, controller.FactoryOpts{
		Thresholds: sys.Thresholds, SLA: sys.SLA,
	})
	if err != nil {
		return nil, err
	}

	names := [2]string{candPol.Name(), "Heracles"}
	stats := [2]*engine.RunStats{}
	runErr := sim.ForEachErr(2, ctx.jobs(), func(i int) error {
		pol := core.PolicyNamed(candidate)
		if i == 1 {
			pol = core.PolicyHeracles
		}
		st, err := sys.Run(core.RunConfig{
			Pattern:        pattern,
			BETypes:        betypes,
			Duration:       spec.Duration(),
			Warmup:         spec.Warmup(),
			Seed:           ctx.Opts.Seed ^ sim.LabelHash("scenario/"+spec.Name+"/"+names[i]),
			Policy:         pol,
			CollectSamples: true,
			Faults:         ctx.Opts.Faults,
		})
		if err != nil {
			return err
		}
		stats[i] = st
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}

	// Post-warmup end-to-end p99 per policy. E2ESamples accumulate from
	// t=0 at engine.SamplesPerTick per tick; slice off the warmup ticks so the
	// per-class verdicts use the same measurement window as the run
	// statistics.
	p99 := [2]float64{}
	for i, st := range stats {
		p99[i] = sim.Quantile(postWarmupSamples(st.E2ESamples, spec.Warmup()), 0.99)
	}

	t := &Table{
		ID: "scenario",
		Title: fmt.Sprintf("Scenario %q: %s under the spec's client mix (%d classes, baseline %.0f%%)",
			spec.Name, svc.Name, len(spec.Clients), 100*spec.Run.BaselineLoad),
		Columns: []string{"row", "detail", "SLO ms", names[0], names[1]},
	}
	addMetric := func(row, detail string, f func(*engine.RunStats) string) {
		t.AddRow(row, detail, "-", f(stats[0]), f(stats[1]))
	}
	t.AddRow("p99 ms", "post-warmup e2e", "-", ms(p99[0]), ms(p99[1]))
	addMetric("SLO viol s", "window p99 vs derived SLA", func(st *engine.RunStats) string {
		return fmt.Sprintf("%.0f", st.ViolationSeconds)
	})
	addMetric("worst p99/SLA", "sliding window", func(st *engine.RunStats) string {
		return f3(st.WorstP99 / sys.SLA)
	})
	addMetric("BE thpt", "mean normalized", func(st *engine.RunStats) string {
		return f3(st.MeanBEThroughput())
	})
	addMetric("EMU", "effective machine util", func(st *engine.RunStats) string {
		return f3(st.MeanEMU())
	})
	addMetric("BE kills", "", func(st *engine.RunStats) string {
		return fmt.Sprintf("%d", st.TotalKills())
	})
	ok := [2]int{}
	for i := range spec.Clients {
		c := &spec.Clients[i]
		slo := c.SLOSeconds(sys.SLA)
		cells := [2]string{}
		for p := range stats {
			verdict := "ok"
			if p99[p] > slo {
				verdict = "VIOL"
			} else {
				ok[p]++
			}
			cells[p] = fmt.Sprintf("%.2fxSLO %s", p99[p]/slo, verdict)
		}
		t.AddRow("class "+c.Class,
			fmt.Sprintf("%s x%.2f", c.Arrival.Process, c.RateFraction),
			fmt.Sprintf("%.2f", 1000*slo), cells[0], cells[1])
	}
	t.Note("derived SLA %.2fms; %s meets %d/%d class SLOs, Heracles %d/%d",
		1000*sys.SLA, names[0], ok[0], len(spec.Clients), ok[1], len(spec.Clients))
	t.Note("BE throughput improvement (%s vs Heracles): %s",
		names[0], pct(core.Improvement(stats[0].MeanBEThroughput(), stats[1].MeanBEThroughput())))
	return t, nil
}

// postWarmupSamples drops the warmup-period prefix of an E2ESamples
// slice: the engine appends engine.SamplesPerTick samples per
// engine.TickDt tick from t=0, so the first whole warmup ticks' samples
// fall in the warmup window.
func postWarmupSamples(samples []float64, warmup time.Duration) []float64 {
	skip := int(warmup/engine.TickDt) * engine.SamplesPerTick
	if skip >= len(samples) {
		return nil
	}
	return samples[skip:]
}
