package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/core"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
)

func init() {
	register(Experiment{ID: "resilience", OnDemand: true,
		Title: "Rhythm vs Heracles under canned fault storms (scenario, not in `run all`)",
		Run:   resilience})
}

// resilience runs the E-commerce system under every canned fault preset
// (surges, storm, chaos) with Rhythm and with Heracles, and reports the
// graceful-degradation scorecard: SLO-violation seconds, periods spent in
// degraded (blind-controller) mode, BE throughput, worst p99 against the
// SLA, and the BE kill/crash counts. Each (storm, policy) cell is an
// independent run with a content-derived seed, fanned out across the
// worker pool into per-index slots, so the table is byte-identical for
// every -jobs count.
func resilience(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	dur, warm := 180*time.Second, 30*time.Second
	if ctx.Opts.Quick {
		dur, warm = 80*time.Second, 16*time.Second
	}

	type cell struct {
		storm  string
		policy string
		viol   float64
		degr   int
		thpt   float64
		ratio  float64
		kills  int
		crash  int
	}
	storms := faults.Presets()

	// Enumerate cells first (cheap, serial), then measure in parallel.
	type runCfg struct {
		storm    string
		polName  string
		isRhythm bool
	}
	var cfgs []runCfg
	for _, storm := range storms {
		cfgs = append(cfgs, runCfg{storm, "Rhythm", true})
		cfgs = append(cfgs, runCfg{storm, "Heracles", false})
	}

	cells := make([]cell, len(cfgs))
	err = sim.ForEachErr(len(cfgs), ctx.jobs(), func(i int) error {
		rc := cfgs[i]
		// The storm's event placement derives from its own substream of
		// the experiment seed, so fault timing is identical under both
		// policies (the comparison is apples to apples) and independent
		// of the workload draws.
		sched, err := faults.Preset(rc.storm, sim.SubSeed(ctx.Opts.Seed, "resilience/"+rc.storm), dur)
		if err != nil {
			return err
		}
		pol := core.PolicyRhythm
		if !rc.isRhythm {
			pol = core.PolicyHeracles
		}
		st, err := sys.Run(core.RunConfig{
			Pattern:  loadgen.Constant(0.65),
			BETypes:  []bejobs.Type{bejobs.Wordcount},
			Duration: dur,
			Warmup:   warm,
			Seed:     ctx.Opts.Seed ^ sim.LabelHash("resilience"+rc.storm),
			Policy:   pol,
			Faults:   sched,
		})
		if err != nil {
			return err
		}
		cells[i] = cell{
			storm:  rc.storm,
			policy: rc.polName,
			viol:   st.ViolationSeconds,
			degr:   st.DegradedPeriods,
			thpt:   st.MeanBEThroughput(),
			ratio:  st.WorstP99 / sys.SLA,
			kills:  st.TotalKills(),
			crash:  st.TotalCrashes(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "resilience",
		Title: "Graceful degradation under fault storms (E-commerce + wordcount, 65% load)",
		Columns: []string{"storm", "policy", "SLO viol s", "degraded",
			"BE thpt", "worst p99/SLA", "kills", "crashes"},
	}
	for _, c := range cells {
		t.AddRow(c.storm, c.policy,
			fmt.Sprintf("%.0f", c.viol),
			fmt.Sprintf("%d", c.degr),
			f3(c.thpt), f3(c.ratio),
			fmt.Sprintf("%d", c.kills), fmt.Sprintf("%d", c.crash))
	}
	for i := 0; i+1 < len(cells); i += 2 {
		r, h := cells[i], cells[i+1]
		verdict := "Rhythm matches Heracles on violation time"
		if r.viol < h.viol {
			verdict = "Rhythm absorbs the storm with less violation time"
		} else if r.viol > h.viol {
			verdict = "Heracles rides out this storm with less violation time"
		}
		t.Note("%s: Rhythm %.0fs viol / %.3f thpt vs Heracles %.0fs / %.3f — %s",
			r.storm, r.viol, r.thpt, h.viol, h.thpt, verdict)
	}
	return t, nil
}
