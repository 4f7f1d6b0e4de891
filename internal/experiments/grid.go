package experiments

import (
	"fmt"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/core"
	"rhythm/internal/engine"
	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
)

func init() {
	register(Experiment{ID: "fig9", Title: "BE throughput at Servpods under different loads (Fig. 9)", Run: func(c *Context) (*Table, error) {
		return podGrid(c, "fig9", "BE throughput (normalized jobs/hour)", func(p *engine.PodStats) float64 { return p.BEThroughput })
	}})
	register(Experiment{ID: "fig10", Title: "CPU utilization at Servpods under different loads (Fig. 10)", Run: func(c *Context) (*Table, error) {
		return podGrid(c, "fig10", "CPU utilization", func(p *engine.PodStats) float64 { return p.CPUUtil })
	}})
	register(Experiment{ID: "fig11", Title: "Memory-bandwidth utilization at Servpods under different loads (Fig. 11)", Run: func(c *Context) (*Table, error) {
		return podGrid(c, "fig11", "memory-bandwidth utilization", func(p *engine.PodStats) float64 { return p.MemBWUtil })
	}})
	register(Experiment{ID: "fig12", Title: "EMU improvement over Heracles (Fig. 12)", Run: func(c *Context) (*Table, error) {
		return serviceGrid(c, "fig12", "EMU", func(r *engine.RunStats) float64 { return r.MeanEMU() })
	}})
	register(Experiment{ID: "fig13", Title: "CPU-utilization improvement over Heracles (Fig. 13)", Run: func(c *Context) (*Table, error) {
		return serviceGrid(c, "fig13", "CPU utilization", func(r *engine.RunStats) float64 { return r.MeanCPUUtil() })
	}})
	register(Experiment{ID: "fig14", Title: "Memory-bandwidth-utilization improvement over Heracles (Fig. 14)", Run: func(c *Context) (*Table, error) {
		return serviceGrid(c, "fig14", "memory-bandwidth utilization", func(r *engine.RunStats) float64 { return r.MeanMemBWUtil() })
	}})
}

// gridServices are the five LC services of the constant-load grids, with
// the focus Servpod §5.2.1 plots for each.
var gridServices = []struct{ Service, FocusPod string }{
	{"E-commerce", "Tomcat"},
	{"Redis", "Slave"},
	{"Solr", "Zookeeper"},
	{"Elgg", "Memcached"},
	{"Elasticsearch", "Kibana"},
}

// gridLoads returns the swept load fractions.
func gridLoads(quick bool) []float64 {
	if quick {
		return []float64{0.25, 0.65, 0.85}
	}
	return []float64{0.05, 0.25, 0.45, 0.65, 0.85}
}

// gridKey identifies one cached comparison run.
type gridKey struct {
	service string
	be      bejobs.Type
	load    float64
}

// gridRun computes (and caches on the context) the Rhythm-vs-Heracles
// comparison for one grid cell. Each cell is a singleflight entry: the
// first arrival runs the comparison, concurrent arrivals block for it.
// The cell's seed is derived from the cell's content, so the value is the
// same whichever experiment or worker computes it first.
func (c *Context) gridRun(key gridKey) (*core.Comparison, error) {
	cmp, _, err := c.grid.Do(key, func() (*core.Comparison, error) {
		sys, err := c.System(key.service)
		if err != nil {
			return nil, err
		}
		dur, warm := 120*time.Second, 30*time.Second
		if c.Opts.Quick {
			dur, warm = 50*time.Second, 16*time.Second
		}
		return sys.Compare(core.RunConfig{
			Pattern:  loadgen.Constant(key.load),
			BETypes:  []bejobs.Type{key.be},
			Duration: dur,
			Warmup:   warm,
			Seed:     c.Opts.Seed ^ sim.LabelHash(string(key.be)+key.service) ^ uint64(key.load*1000),
			Faults:   c.Opts.Faults,
		})
	})
	return cmp, err
}

// gridKeys enumerates every cell of the Figs. 9-14 grid in rendering
// order.
func (c *Context) gridKeys() []gridKey {
	var keys []gridKey
	for _, gs := range gridServices {
		for _, be := range bejobs.EvaluationTypes() {
			for _, load := range gridLoads(c.Opts.Quick) {
				keys = append(keys, gridKey{gs.Service, be, load})
			}
		}
	}
	return keys
}

// prefetchGrid computes every grid cell across the context's worker
// pool. All six grid figures share the cells, so the first grid
// experiment pays for the sweep once (Context.ensureGrid) — in parallel —
// and the rest render from cache. The first error in cell order is
// reported, matching the serial loop.
func (c *Context) prefetchGrid() (err error) {
	keys := c.gridKeys()
	charge("grid", func() {
		err = sim.ForEachErr(len(keys), c.jobs(), func(i int) error {
			_, err := c.gridRun(keys[i])
			return err
		})
	})
	return err
}

// podGrid renders Figs. 9-11: the focus Servpod's metric under Rhythm and
// Heracles across BE types and loads.
func podGrid(ctx *Context, id, metric string, get func(*engine.PodStats) float64) (*Table, error) {
	if err := ctx.ensureGrid(); err != nil {
		return nil, err
	}
	loads := gridLoads(ctx.Opts.Quick)
	cols := []string{"servpod/service", "BE", "policy"}
	for _, l := range loads {
		cols = append(cols, pct(l))
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s at focus Servpods, Rhythm vs Heracles", metric),
		Columns: cols,
	}
	var rhythmAt85, heraclesAt85 float64
	var improveSum float64
	var improveN int
	for _, gs := range gridServices {
		for _, be := range bejobs.EvaluationTypes() {
			rowR := []string{gs.FocusPod + "/" + gs.Service, string(be), "Rhythm"}
			rowH := []string{gs.FocusPod + "/" + gs.Service, string(be), "Heracles"}
			for _, load := range loads {
				cmp, err := ctx.gridRun(gridKey{gs.Service, be, load})
				if err != nil {
					return nil, err
				}
				rv := get(cmp.Rhythm.PerPod[gs.FocusPod])
				hv := get(cmp.Heracles.PerPod[gs.FocusPod])
				rowR = append(rowR, f3(rv))
				rowH = append(rowH, f3(hv))
				improveSum += rv - hv
				improveN++
				if load == 0.85 {
					rhythmAt85 += rv
					heraclesAt85 += hv
				}
			}
			t.AddRow(rowR...)
			t.AddRow(rowH...)
		}
	}
	t.Note("mean Rhythm-Heracles gap across the grid: %+.3f", improveSum/float64(improveN))
	t.Check(!(rhythmAt85 <= heraclesAt85),
		"at 85%% load: Rhythm total %.3f vs Heracles %.3f — paper: Heracles drops to zero BE co-location at 85%%",
		rhythmAt85, heraclesAt85)
	return t, nil
}

// serviceGrid renders Figs. 12-14: the relative improvement of a
// service-level metric, (Rhythm-Heracles)/Heracles.
func serviceGrid(ctx *Context, id, metric string, get func(*engine.RunStats) float64) (*Table, error) {
	if err := ctx.ensureGrid(); err != nil {
		return nil, err
	}
	loads := gridLoads(ctx.Opts.Quick)
	cols := []string{"service", "BE"}
	for _, l := range loads {
		cols = append(cols, pct(l))
	}
	cols = append(cols, "mean")
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s improvement (Rhythm-Heracles)/Heracles", metric),
		Columns: cols,
	}
	perService := map[string]float64{}
	perServiceN := map[string]int{}
	for _, gs := range gridServices {
		for _, be := range bejobs.EvaluationTypes() {
			row := []string{gs.Service, string(be)}
			sum := 0.0
			for _, load := range loads {
				cmp, err := ctx.gridRun(gridKey{gs.Service, be, load})
				if err != nil {
					return nil, err
				}
				imp := core.Improvement(get(cmp.Rhythm), get(cmp.Heracles))
				sum += imp
				row = append(row, pct(imp))
			}
			mean := sum / float64(len(loads))
			row = append(row, pct(mean))
			perService[gs.Service] += mean
			perServiceN[gs.Service]++
			t.AddRow(row...)
		}
	}
	best, bestV := "", -1.0
	for _, gs := range gridServices {
		v := perService[gs.Service] / float64(perServiceN[gs.Service])
		t.Note("%s: mean %s improvement %s", gs.Service, metric, pct(v))
		if v > bestV {
			best, bestV = gs.Service, v
		}
	}
	t.Check(!(bestV <= 0), "best service: %s (%s) — paper: Solr benefits the most; improvements positive everywhere",
		best, pct(bestV))
	return t, nil
}
