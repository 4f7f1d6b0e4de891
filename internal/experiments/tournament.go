package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/core"
	"rhythm/internal/engine"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
)

func init() {
	register(Experiment{ID: "tournament", OnDemand: true,
		Title: "Policy zoo head-to-head: every registered policy x every workload (scenario, not in `run all`)",
		Run:   tournament})
}

// tournamentCell is one (workload, policy) outcome in the scorecard.
type tournamentCell struct {
	workload string
	policy   string
	ratio    float64 // worst sliding-window p99 / SLA
	podP99   float64 // worst per-pod sojourn p99, seconds
	viol     float64 // SLO-violation seconds
	thpt     float64 // mean normalized BE goodput
	degr     int     // control ticks decided in degraded (blind) mode
	kills    int
}

// tournamentWorkload is one column of the zoo bracket: a load pattern
// plus an optional fault preset, with its own run length so a -scenario
// spec can ride along at the spec's horizon.
type tournamentWorkload struct {
	name    string
	pattern loadgen.Pattern
	betypes []bejobs.Type
	preset  string // fault preset name; "" = fault-free
	dur     time.Duration
	warm    time.Duration
}

// tournament runs every policy in the controller registry
// (controller.Names(): rhythm, heracles, none, predictive, scoring,
// rack-central, plus anything third parties registered) through a bracket
// of workloads — steady load, a diurnal wave, and every canned fault
// preset — and prints the policy x workload scorecard: worst window p99
// against the SLA, the worst per-Servpod sojourn tail, SLO-violation
// seconds, BE goodput, degraded (blind-controller) ticks and BE kills.
// With -scenario the spec joins the bracket as one more workload at its
// own horizon.
//
// Determinism: patterns are built once, serially, on their own seed
// substreams before the cells fan out; each (workload, policy) cell is an
// independent run with a content-derived seed, measured into a per-index
// slot; each workload's fault schedule derives from the workload name
// only, so every policy faces the identical storm. The table is
// byte-identical for every -jobs count. Registered-but-excluded from
// `run all`, so the golden pin never moves.
func tournament(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	dur, warm := 180*time.Second, 30*time.Second
	if ctx.Opts.Quick {
		dur, warm = 80*time.Second, 16*time.Second
	}

	diurnal, err := loadgen.NewDiurnal(dur/2, 0.35, 0.85, 0.08,
		sim.SubSeed(ctx.Opts.Seed, "tournament/diurnal"))
	if err != nil {
		return nil, err
	}
	be := []bejobs.Type{bejobs.Wordcount}
	wls := []tournamentWorkload{
		{name: "steady-65", pattern: loadgen.Constant(0.65), betypes: be, dur: dur, warm: warm},
		{name: "diurnal", pattern: diurnal, betypes: be, dur: dur, warm: warm},
	}
	for _, preset := range faults.Presets() {
		wls = append(wls, tournamentWorkload{
			name: preset, pattern: loadgen.Constant(0.65), betypes: be,
			preset: preset, dur: dur, warm: warm,
		})
	}
	if spec := ctx.Opts.Scenario; spec != nil {
		pattern, err := spec.LoadPattern(sim.SubSeed(ctx.Opts.Seed, "tournament/spec/"+spec.Name))
		if err != nil {
			return nil, err
		}
		betypes, err := spec.BETypes()
		if err != nil {
			return nil, err
		}
		wls = append(wls, tournamentWorkload{
			name: "spec:" + spec.Name, pattern: pattern, betypes: betypes,
			dur: spec.Duration(), warm: spec.Warmup(),
		})
	}

	pols := controller.Names()
	cells := make([]tournamentCell, len(wls)*len(pols))
	err = sim.ForEachErr(len(cells), ctx.jobs(), func(i int) error {
		wl := wls[i/len(pols)]
		pol := pols[i%len(pols)]
		var sched *faults.Schedule
		if wl.preset != "" {
			// The storm derives from the workload name alone: identical
			// event placement under every policy, apples to apples.
			s, err := faults.Preset(wl.preset, sim.SubSeed(ctx.Opts.Seed, "tournament/"+wl.preset), wl.dur)
			if err != nil {
				return err
			}
			sched = s
		}
		st, err := sys.Run(core.RunConfig{
			Pattern:        wl.pattern,
			BETypes:        wl.betypes,
			Duration:       wl.dur,
			Warmup:         wl.warm,
			Seed:           ctx.Opts.Seed ^ hash("tournament/"+wl.name+"/"+pol),
			Policy:         core.PolicyNamed(pol),
			CollectSamples: true,
			Faults:         sched,
		})
		if err != nil {
			return err
		}
		cells[i] = tournamentCell{
			workload: wl.name,
			policy:   pol,
			ratio:    st.WorstP99 / sys.SLA,
			podP99:   worstPodP99(st),
			viol:     st.ViolationSeconds,
			thpt:     st.MeanBEThroughput(),
			degr:     st.DegradedPeriods,
			kills:    st.TotalKills(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "tournament",
		Title: fmt.Sprintf("Policy tournament: %d policies x %d workloads (E-commerce, %s runs)",
			len(pols), len(wls), dur),
		Columns: []string{"workload", "policy", "p99/SLA", "pod p99 ms",
			"SLO viol s", "BE thpt", "degraded", "kills"},
	}
	for _, c := range cells {
		t.AddRow(c.workload, c.policy,
			f3(c.ratio), ms(c.podP99),
			fmt.Sprintf("%.0f", c.viol), f3(c.thpt),
			fmt.Sprintf("%d", c.degr), fmt.Sprintf("%d", c.kills))
	}
	for wi, wl := range wls {
		t.Note("%s: best co-location policy %s (SLO viol, then BE goodput; solo reference excluded)",
			wl.name, bestPolicy(cells[wi*len(pols):(wi+1)*len(pols)]))
	}
	t.Note("policies from the controller registry: %d registered; derived SLA %.2fms",
		len(pols), 1000*sys.SLA)
	return t, nil
}

// worstPodP99 is the maximum per-Servpod sojourn p99 across the run —
// the component-level tail the per-pod thresholds are supposed to keep
// in check.
func worstPodP99(st *engine.RunStats) float64 {
	var worst float64
	for _, p := range st.PerPod {
		if q := sim.Quantile(p.SojournSamples, 0.99); q > worst {
			worst = q
		}
	}
	return worst
}

// bestPolicy picks the winner of one workload's row group: lowest
// SLO-violation seconds, ties broken by highest BE goodput. The "none"
// solo reference runs no BE work, so it is excluded from the ranking.
func bestPolicy(cells []tournamentCell) string {
	best := -1
	for i, c := range cells {
		if c.policy == "none" {
			continue
		}
		if best < 0 || c.viol < cells[best].viol ||
			(c.viol == cells[best].viol && c.thpt > cells[best].thpt) {
			best = i
		}
	}
	if best < 0 {
		return "n/a"
	}
	return cells[best].policy
}
