package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func init() {
	register(Experiment{ID: "fig6", Title: "Average sojourn time and CoV of E-commerce Servpods, solo run (Fig. 6a/6b)", Run: fig6})
	register(Experiment{ID: "fig8", Title: "Loadlimit derivation from sojourn-CoV knees (Fig. 8)", Run: fig8})
	register(Experiment{ID: "tab1", Title: "LC workloads and BE jobs (Table 1)", Run: tab1})
}

// fig6 reproduces the solo-run sweep of E-commerce: per-level mean sojourn
// per Servpod, the overall p99, and the per-level sojourn CoV.
func fig6(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	prof := sys.Profile
	lp := prof.LoadProfile
	pods := sys.Service.ComponentNames()

	cols := []string{"load"}
	for _, p := range pods {
		cols = append(cols, "mean("+p+")")
	}
	cols = append(cols, "p99(e2e)")
	for _, p := range pods {
		cols = append(cols, "cov("+p+")")
	}
	t := &Table{
		ID:      "fig6",
		Title:   "E-commerce solo-run sweep: mean Servpod sojourns (6a) and sojourn CoV (6b)",
		Columns: cols,
	}
	for i, level := range lp.Levels {
		row := []string{pct(level)}
		for _, p := range pods {
			row = append(row, ms(lp.Sojourns[p][i]))
		}
		row = append(row, ms(lp.Tail[i]))
		for _, p := range pods {
			row = append(row, f3(prof.CoV[p][i]))
		}
		t.AddRow(row...)
	}

	last := len(lp.Levels) - 1
	total := 0.0
	for _, p := range pods {
		total += lp.Sojourns[p][last]
	}
	t.Note("HAProxy sojourn share at max swept load: %s — paper: <5%%", pct(lp.Sojourns["Haproxy"][last]/total))
	amoebaCoV := sim.Mean(prof.CoV["Amoeba"])
	minCoV := amoebaCoV
	for _, p := range pods {
		if m := sim.Mean(prof.CoV[p]); m < minCoV {
			minCoV = m
		}
	}
	status := "OK"
	if amoebaCoV != minCoV {
		status = "MISMATCH"
	}
	t.Note("Amoeba has the smallest mean CoV (%.3f) — paper: most stable Servpod [%s]", amoebaCoV, status)
	return t, nil
}

// fig8 reports the CoV-vs-load series of MySQL and Tomcat with the derived
// loadlimits (paper: 0.76 and 0.87).
func fig8(ctx *Context) (*Table, error) {
	sys, err := ctx.System("E-commerce")
	if err != nil {
		return nil, err
	}
	prof := sys.Profile
	t := &Table{
		ID:      "fig8",
		Title:   "Sojourn CoV vs load and the first-above-average loadlimit rule",
		Columns: []string{"load", "cov(MySQL)", "cov(Tomcat)"},
	}
	for i, level := range prof.LoadProfile.Levels {
		t.AddRow(pct(level), f3(prof.CoV["MySQL"][i]), f3(prof.CoV["Tomcat"][i]))
	}
	t.Note("average CoV: MySQL %.3f, Tomcat %.3f", sim.Mean(prof.CoV["MySQL"]), sim.Mean(prof.CoV["Tomcat"]))
	t.Note("loadlimit(MySQL) = %s — paper: 76%%", pct(prof.Loadlimits["MySQL"]))
	t.Note("loadlimit(Tomcat) = %s — paper: 87%%", pct(prof.Loadlimits["Tomcat"]))
	status := "OK"
	if prof.Loadlimits["MySQL"] >= prof.Loadlimits["Tomcat"] {
		status = "MISMATCH"
	}
	t.Note("MySQL's knee precedes Tomcat's [%s]", status)
	return t, nil
}

// tab1 prints the workload catalog with this reproduction's derived SLAs
// alongside the paper's Table 1 values.
func tab1(ctx *Context) (*Table, error) {
	t := &Table{
		ID:    "tab1",
		Title: "LC workloads and BE jobs",
		Columns: []string{"workload", "domain", "servpods", "maxload",
			"SLA(paper)", "SLA(derived)", "containers"},
	}
	for _, svc := range workload.Services() {
		sys, err := ctx.System(svc.Name)
		if err != nil {
			return nil, err
		}
		pods := ""
		for i, c := range svc.Components {
			if i > 0 {
				pods += ","
			}
			pods += c.Name
		}
		t.AddRow(svc.Name, svc.Domain, pods,
			fmt.Sprintf("%.0f QPS", svc.MaxLoadQPS),
			formatSLA(svc.SLATable1),
			ms(sys.SLA),
			fmt.Sprintf("%d", svc.Containers))
	}
	for _, ty := range bejobs.Types() {
		spec := bejobs.MustLookup(ty)
		t.Note("BE %s: %s (%s-intensive)", spec.Type, spec.Domain, spec.Intensive)
	}
	return t, nil
}

func formatSLA(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/1e6)
}
