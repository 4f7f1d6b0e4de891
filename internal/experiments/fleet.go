package experiments

import (
	"fmt"
	"strings"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/sim"
)

func init() {
	register(Experiment{ID: "fleet", OnDemand: true,
		Title: "Datacenter-scale fleet run over a preset mix (scenario, not in `run all`)",
		Run:   fleetExperiment})
}

// fleetExperiment is the ROADMAP item 1 scorecard: the chosen preset's
// machine mix (default fleet100), each replica running Rhythm's deployed
// policy for its service, all sharing one BE queue under a fleet-wide
// diurnal load. The table has one row per service class; the notes carry
// the queue, goodput and utilization-histogram aggregates.
//
// Like the other scenario-family experiments it is excluded from
// IDs()/`run all`, so GOLDEN.sha256 and the run-all stdout never move.
// Within the experiment every byte is -jobs-independent: deployments fan
// out into per-index slots and the fleet itself is epoch-barriered
// (internal/fleet package doc).
func fleetExperiment(ctx *Context) (*Table, error) {
	preset := ctx.Opts.Fleet
	if preset == "" {
		preset = fleet.DefaultPreset
	}
	prof, err := fleet.PresetProfile(preset)
	if err != nil {
		return nil, err
	}
	dur, warm := 10*time.Minute, 60*time.Second
	if ctx.Opts.Quick {
		dur, warm = 2*time.Minute, 20*time.Second
	}

	// Deploy each distinct service once (offline profiling; the expensive
	// part), in parallel, into per-index slots.
	entries := make([]fleet.Entry, len(prof.Mix))
	err = sim.ForEachErr(len(prof.Mix), ctx.jobs(), func(i int) error {
		sys, err := ctx.System(prof.Mix[i].Service)
		if err != nil {
			return err
		}
		entries[i] = fleet.Entry{
			Service:  sys.Service,
			Replicas: prof.Mix[i].Replicas,
			Policy:   sys.Policy,
			SLA:      sys.SLA,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	seed := ctx.Opts.Seed ^ hash("fleet"+preset)
	pattern, err := loadgen.NewDiurnal(dur/2, 0.35, 0.85, 0.08, sim.SubSeed(seed, "fleet/load"))
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(fleet.Config{
		Entries:  entries,
		Pattern:  pattern,
		BETypes:  []bejobs.Type{bejobs.Wordcount, bejobs.CPUStress, bejobs.StreamDRAM, bejobs.ImageClassify},
		Duration: dur,
		Warmup:   warm,
		Seed:     seed,
		Jobs:     ctx.jobs(),
	})
	if err != nil {
		return nil, err
	}
	res := fl.Run()

	t := &Table{
		ID: "fleet",
		Title: fmt.Sprintf("Fleet scorecard: %s (%d machines, %d replicas, diurnal load, shared BE queue)",
			preset, res.Machines, res.Replicas),
		Columns: []string{"class", "mach", "repl", "mean p99", "worst p99/SLA",
			"viol s", "BE thpt", "cpu util", "membw util", "kills"},
	}
	for _, c := range res.Classes {
		t.AddRow(c.Service,
			fmt.Sprintf("%d", c.Machines), fmt.Sprintf("%d", c.Replicas),
			ms(c.MeanP99), f2(c.WorstP99/c.SLA),
			fmt.Sprintf("%.0f", c.ViolationSeconds),
			f3(c.BEThroughput), pct(c.CPUUtil), pct(c.MemBWUtil),
			fmt.Sprintf("%d", c.Kills))
	}
	q := res.Queue
	t.Note("BE goodput %.1f jobs/machine-hour (%d completions, %d kills, %d crashes over %d epochs)",
		res.GoodputPerMachineHour, res.Completions, res.Kills, res.Crashes, res.Epochs)
	t.Note("queue: %d submitted, %d rejected, %d requeued (%d lost full), %d dispatched, %d pending; wait mean %.1fs p50 %.1fs p99 %.1fs",
		q.Submitted, q.Rejected, q.Requeued, q.RequeueDropped, q.Dispatched, q.Pending,
		q.MeanWaitS, q.P50WaitS, q.P99WaitS)
	t.Note("cpu util deciles %s; membw util deciles %s", histString(res.CPUHist), histString(res.MemBWHist))
	return t, nil
}

// histString renders a decile histogram as "n0/n1/.../n9".
func histString(h [10]int) string {
	parts := make([]string, len(h))
	for i, n := range h {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "/")
}
