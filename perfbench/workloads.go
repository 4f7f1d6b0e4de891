package main

import (
	"fmt"
	"math"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/core"
	"rhythm/internal/experiments"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/profiler"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// jobs is the worker-goroutine budget of every workload: the two cores
// of the reference box. Each workload has one caller, this harness, which
// issues its next op only after the previous one returned (a closed
// loop).
const jobs = 2

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// pinned marks the workloads that deploy services: their timed work
	// is computed at fixtureSeed on every run, so the output digest is
	// checked against the pin at every seed.
	pinned bool
	// freshProcess runs every timed pass in a process of its own, so the
	// process-wide profile and slacklimit caches start empty and every
	// deployment that goes through them is computed, not looked up.
	freshProcess bool
	// passSeconds is the measuring time budgeted to one timed pass: a
	// run makes round(--seconds / passSeconds) passes. It is a constant,
	// so the work of a run never depends on how fast it goes.
	passSeconds float64
	// setup builds the inputs and runs the untimed warm-up.
	setup func(seed uint64, fx []deployment) (*bench, error)
}

// bench is a set-up workload: pass runs the timed ops once.
type bench struct {
	pass func(tr *tracer) (*passOut, error)
	// replay measures, after a traced pass, the layers the pass reaches
	// only inside other calls (traced runs only); its ops check each
	// replayed result against the pass's.
	replay func(tr *tracer) *passOut
}

// passOut is one timed pass as the workload sees it.
type passOut struct {
	opMs      []float64
	attempted int
	failed    int
	problems  []string
	digest    string
}

func (p *passOut) fail(format string, args ...interface{}) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workloadDef{
	// An offline pass takes 10-12 s; the 8 s budget buys a third pass, so
	// a run's median survives one pass slowed by a burst of host
	// contention (seen to stretch a pass from 10 s to 17 s). offline
	// calls the uncached profiler functions, so its passes share one
	// process; only paper-quick goes through the caches.
	{name: "offline", pinned: true, passSeconds: 8, setup: setupOffline},
	{name: "colocate", passSeconds: 4, setup: setupColocate},
	{name: "fleet100", passSeconds: 2.5, setup: setupFleet},
	{name: "paper-quick", pinned: true, freshProcess: true, passSeconds: 22, setup: setupPaperQuick},
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// warmSeed seeds the offline, colocate and fleet100 warm-ups, so their
// set-up work is the same at every seed.
const warmSeed = 1

// warmJobs is the worker budget of every warm-up. One worker keeps
// setup_s steady: a set-up lasts only a few tenths of a second, and on two
// workers it waits for whichever vCPU the host slows (fleet100's parallel
// set-up moved 28% between two rounds of identical code, its timed pass
// 12%).
const warmJobs = 1

// fnv is the 64-bit FNV-1a hash the experiments' grid uses for its cell
// seeds.
func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ---------------------------------------------------------------------------
// offline: a cold deploy of the six Table 1 services.

// quickLevels is the quick-scale profiling sweep of experiments.Context.
var quickLevels = []float64{0.1, 0.3, 0.5, 0.65, 0.75, 0.85, 0.93}

// quickProfile and quickSlack are the quick-scale options
// experiments.Context deploys with, at fixtureSeed.
var (
	quickProfile = profiler.Options{
		Levels:        quickLevels,
		LevelDuration: 5 * time.Second,
		UseTracer:     true,
		TraceRequests: 300,
		Seed:          fixtureSeed,
		Jobs:          jobs,
	}
	quickSlack = profiler.SlackOptions{StepDuration: 80 * time.Second, Seed: fixtureSeed + 1, Jobs: jobs}
)

// deploy is the uncached body of core.Deploy, with a span around each of
// its two phases.
func deploy(svc *workload.Service, tr *tracer) (deployment, *profiler.Profile, error) {
	sp := tr.begin("profiler.Run", svc.Name)
	prof, err := profiler.Run(svc, quickProfile)
	tr.end(sp)
	if err != nil {
		return deployment{}, nil, err
	}
	sp = tr.begin("profiler.FindSlacklimits", svc.Name)
	sl, err := profiler.FindSlacklimits(prof, quickSlack)
	tr.end(sp)
	if err != nil {
		return deployment{}, nil, err
	}
	th, err := profiler.Thresholds(prof, sl)
	if err != nil {
		return deployment{}, nil, err
	}
	return deployment{Service: svc.Name, SLA: prof.SLA, Thresholds: th}, prof, nil
}

// checkDeployment returns what is wrong with a deployment, or "".
func checkDeployment(d deployment, svc *workload.Service) string {
	if !finite(d.SLA) || d.SLA <= 0 {
		return fmt.Sprintf("%s: SLA %g", d.Service, d.SLA)
	}
	if len(d.Thresholds) != len(svc.Components) {
		return fmt.Sprintf("%s: %d thresholds for %d Servpods", d.Service, len(d.Thresholds), len(svc.Components))
	}
	for pod, th := range d.Thresholds {
		if !(th.Slacklimit > 0 && th.Slacklimit <= 1) || !(th.Loadlimit > 0 && th.Loadlimit <= 1) {
			return fmt.Sprintf("%s/%s: thresholds %+v outside (0,1]", d.Service, pod, th)
		}
		inSweep := false
		for _, l := range quickLevels {
			inSweep = inSweep || th.Loadlimit == l
		}
		if !inSweep {
			return fmt.Sprintf("%s/%s: loadlimit %g is not a sweep level", d.Service, pod, th.Loadlimit)
		}
	}
	return ""
}

// setupOffline deploys at fixtureSeed on every run: Algorithm 1's probe
// count, and with it the cost of a deploy, moves with the deploy seed
// (wall 8.8-12.4 s over seeds 11-55, an interquartile spread of 26%),
// which would swamp any bound.
// The run's seed orders the six services instead, and every run checks
// its deployments against the fixture.
func setupOffline(seed uint64, fx []deployment) (*bench, error) {
	services := workload.Services()
	order := sim.NewRNG(seed).Fork("offline/order").Perm(len(services))
	// Warm-up: one much smaller deploy on the uncached path, so the
	// process-wide caches stay empty.
	prof, err := profiler.Run(services[1], profiler.Options{
		Levels: []float64{0.3, 0.85}, LevelDuration: 2 * time.Second,
		UseTracer: true, TraceRequests: 100, Seed: warmSeed, Jobs: warmJobs,
	})
	if err != nil {
		return nil, err
	}
	if _, err := profiler.FindSlacklimits(prof, profiler.SlackOptions{
		StepDuration: 10 * time.Second, Substeps: 1, Seed: warmSeed, Jobs: warmJobs,
	}); err != nil {
		return nil, err
	}

	profiles := make([]*profiler.Profile, len(services))
	b := &bench{}
	b.pass = func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		deps := make([]deployment, len(services))
		for _, i := range order {
			svc := services[i]
			out.attempted++
			// Cold by construction: deploy calls the uncached profiler
			// functions. These checks only guard against a later edit
			// of the harness routing an op through the caches.
			if keys := profiler.CachedKeys(); len(keys) > 0 {
				out.fail("%s: %d cached artifacts before the op", svc.Name, len(keys))
				continue
			}
			h0, m0 := profiler.CacheStats()
			t0 := time.Now()
			d, prof, err := deploy(svc, tr)
			out.opMs = append(out.opMs, msSince(t0))
			if err != nil {
				out.fail("%s: %v", svc.Name, err)
				continue
			}
			if h1, m1 := profiler.CacheStats(); h1 != h0 || m1 != m0 {
				out.fail("%s: profile cache consulted (%d hits, %d misses)", svc.Name, h1-h0, m1-m0)
				continue
			}
			deps[i] = d
			if msg := checkDeployment(deps[i], svc); msg != "" {
				out.fail("%s", msg)
				continue
			}
			if !sameDeployment(deps[i], fx[i]) {
				out.fail("%s: deployment differs from fixture.json", svc.Name)
			}
			profiles[i] = prof
		}
		dg := newDigest()
		for _, d := range deps {
			dg.deployment(d)
		}
		out.digest = dg.sum()
		return out, nil
	}
	b.replay = func(tr *tracer) *passOut { return replayOffline(tr, profiles) }
	return b, nil
}

// ---------------------------------------------------------------------------
// colocate: the Figs. 9-14 quick grid, one core.System.Run per op.

// gridServices are the five services of the constant-load grids.
var gridServices = []string{"E-commerce", "Redis", "Solr", "Elgg", "Elasticsearch"}

type cell struct {
	sys    *core.System
	cfg    core.RunConfig
	policy string
}

func colocateCells(seed uint64, sys map[string]*core.System) []cell {
	var cells []cell
	for _, name := range gridServices {
		for _, be := range bejobs.EvaluationTypes() {
			for _, load := range []float64{0.25, 0.65, 0.85} {
				for cs := uint64(0); cs < 2; cs++ {
					for _, pol := range []string{"rhythm", "heracles"} {
						cells = append(cells, cell{sys: sys[name], policy: pol, cfg: core.RunConfig{
							Pattern:  loadgen.Constant(load),
							BETypes:  []bejobs.Type{be},
							Duration: 50 * time.Second,
							Warmup:   16 * time.Second,
							Seed:     (seed + cs) ^ fnv(string(be)+name) ^ uint64(load*1000),
							Policy:   core.PolicyNamed(pol),
						}})
					}
				}
			}
		}
	}
	return cells
}

func setupColocate(seed uint64, fx []deployment) (*bench, error) {
	sys, err := systems(fx)
	if err != nil {
		return nil, err
	}
	cells := colocateCells(seed, sys)
	// Warm-up: every 12th cell of the grid at warmSeed, untimed.
	warm := colocateCells(warmSeed, sys)
	for i := 0; i < len(warm); i += 12 {
		if _, err := warm[i].sys.Run(warm[i].cfg); err != nil {
			return nil, err
		}
	}
	return &bench{pass: func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		dg := newDigest()
		for _, c := range cells {
			out.attempted++
			t0 := time.Now()
			sp := tr.beginRun(c.sys.Service.Name + "/" + c.policy)
			st, err := c.sys.Run(c.cfg)
			tr.end(sp)
			out.opMs = append(out.opMs, msSince(t0))
			if err != nil {
				out.fail("%s/%s: %v", c.sys.Service.Name, c.policy, err)
				continue
			}
			emu := st.MeanEMU()
			if !finite(st.WorstP99, st.MeanP99, emu) || st.WorstP99 <= 0 {
				out.fail("%s/%s: p99 %g/%g EMU %g", c.sys.Service.Name, c.policy, st.WorstP99, st.MeanP99, emu)
				continue
			}
			// Per-pod values in component order: the RunStats means sum
			// over a map, so their last bits vary from run to run.
			dg.f(st.WorstP99, st.MeanP99)
			dg.i(st.Violations)
			for _, comp := range c.sys.Service.Components {
				p := st.PerPod[comp.Name]
				dg.f(p.EMU, p.CPUUtil, p.MemBWUtil, p.BEThroughput)
				dg.i(p.Kills)
			}
		}
		out.digest = dg.sum()
		return out, nil
	}}, nil
}

// ---------------------------------------------------------------------------
// fleet100: the fleet100 preset under the fleet experiment's diurnal.

const (
	fleetPreset = "fleet100"
	fleetEpochs = 300 // 10 virtual minutes of 2 s epochs
)

func fleetConfig(seed uint64, sys map[string]*core.System) (fleet.Config, error) {
	prof, err := fleet.PresetProfile(fleetPreset)
	if err != nil {
		return fleet.Config{}, err
	}
	var entries []fleet.Entry
	for _, m := range prof.Mix {
		s := sys[m.Service]
		entries = append(entries, fleet.Entry{Service: s.Service, Replicas: m.Replicas, Policy: s.Policy, SLA: s.SLA})
	}
	dur := time.Duration(fleetEpochs) * 2 * time.Second
	fseed := seed ^ fnv("fleet"+fleetPreset)
	pattern, err := loadgen.NewDiurnal(dur/2, 0.35, 0.85, 0.08, sim.SubSeed(fseed, "fleet/load"))
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Entries:  entries,
		Pattern:  pattern,
		BETypes:  []bejobs.Type{bejobs.Wordcount, bejobs.CPUStress, bejobs.StreamDRAM, bejobs.ImageClassify},
		Duration: dur,
		Warmup:   60 * time.Second,
		Seed:     fseed,
		Jobs:     jobs,
	}, nil
}

// checkFleet returns what is wrong with a fleet scorecard, or "".
func checkFleet(res *fleet.Result) string {
	q := res.Queue
	if res.Epochs != fleetEpochs {
		return fmt.Sprintf("%d epochs, want %d", res.Epochs, fleetEpochs)
	}
	if q.Submitted+q.Requeued-q.Dispatched != q.Pending || q.Submitted <= 0 ||
		q.Dispatched < 0 || q.Rejected < 0 || q.RequeueDropped < 0 {
		return fmt.Sprintf("queue counters inconsistent: %+v", q)
	}
	for _, c := range res.Classes {
		if !finite(c.MeanP99, c.WorstP99) || c.WorstP99 <= 0 {
			return fmt.Sprintf("%s: p99 %g/%g", c.Service, c.MeanP99, c.WorstP99)
		}
	}
	return ""
}

func setupFleet(seed uint64, fx []deployment) (*bench, error) {
	sys, err := systems(fx)
	if err != nil {
		return nil, err
	}
	cfg, err := fleetConfig(seed, sys)
	if err != nil {
		return nil, err
	}
	// Warm-up: a few epochs of the fleet at warmSeed.
	wcfg, err := fleetConfig(warmSeed, sys)
	if err != nil {
		return nil, err
	}
	wcfg.Jobs = warmJobs
	wf, err := fleet.New(wcfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		wf.Step()
	}
	return &bench{pass: func(tr *tracer) (*passOut, error) {
		f, err := fleet.New(cfg)
		if err != nil {
			return nil, err
		}
		out := &passOut{}
		for e := 0; e < fleetEpochs; e++ {
			out.attempted++
			t0 := time.Now()
			sp := tr.begin("fleet.Step", "")
			f.Step()
			tr.end(sp)
			out.opMs = append(out.opMs, msSince(t0))
		}
		res := f.Result()
		if msg := checkFleet(res); msg != "" {
			out.fail("%s", msg)
		}
		dg := newDigest()
		q := res.Queue
		dg.i(res.Machines, res.Replicas, res.Epochs, res.Completions, res.Kills, res.Crashes)
		dg.i(q.Submitted, q.Rejected, q.Requeued, q.RequeueDropped, q.Dispatched, q.Pending)
		dg.f(q.MeanWaitS, q.P50WaitS, q.P99WaitS)
		for _, c := range res.Classes {
			dg.s(c.Service)
			dg.f(c.MeanP99, c.WorstP99, c.ViolationSeconds, c.BEThroughput, c.CPUUtil, c.MemBWUtil)
			dg.i(c.Kills, c.Crashes, c.Completions)
		}
		dg.i(res.CPUHist[:]...)
		dg.i(res.MemBWHist[:]...)
		out.digest = dg.sum()
		return out, nil
	}}, nil
}

// ---------------------------------------------------------------------------
// paper-quick: `run all -quick` through experiments.RunAll.

// paperQuickMisses is the number of profile plus slacklimit cache lookups
// of one cold `run all -quick`, every one of them a miss: a profile and a
// slacklimit search for each of the six services.
const paperQuickMisses = 12

// setupPaperQuick times `run all -quick -seed 2020`, the ROADMAP's
// headline row, on every run: like offline's, its cost moves with the
// experiment seed (wall 16.3-22.9 s over seeds 11-55). The run's seed
// picks the warm-up's grid cells.
func setupPaperQuick(seed uint64, fx []deployment) (*bench, error) {
	// Warm-up: grid-like engine runs from the fixture. They never touch
	// the profile cache.
	sys, err := systems(fx)
	if err != nil {
		return nil, err
	}
	cells := colocateCells(seed, sys)
	err = sim.ForEachErr(30, warmJobs, func(i int) error {
		_, err := cells[i*12].sys.Run(cells[i*12].cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	ctx := experiments.NewContext(experiments.Options{Seed: fixtureSeed, Quick: true, Jobs: jobs})
	return &bench{pass: func(tr *tracer) (*passOut, error) {
		out := &passOut{}
		if keys := profiler.CachedKeys(); len(keys) > 0 {
			return nil, fmt.Errorf("%d cached artifacts before the pass", len(keys))
		}
		h0, m0 := profiler.CacheStats()
		t0 := time.Now()
		sp := tr.begin("experiments.RunAll", "")
		res := ctx.RunAll(nil, jobs)
		tr.end(sp)
		// The op is the RunAll call. Per-experiment times are no op: the
		// experiment that first needs a shared artifact pays for it, and
		// which one that is depends on worker timing (their median moved
		// 43-63 ms between runs of identical work).
		out.opMs = append(out.opMs, msSince(t0))
		h1, m1 := profiler.CacheStats()
		dg := newDigest()
		for _, r := range res {
			out.attempted++
			tr.experiment(r.ID, r.Elapsed)
			if r.Err != nil || r.Table == nil {
				out.fail("%s: %v", r.ID, r.Err)
				continue
			}
			dg.s(r.Table.String())
		}
		if h1 != h0 || m1-m0 != paperQuickMisses {
			out.fail("%d profile/slacklimit cache hits and %d misses, want 0 and %d: a deployment was not computed cold",
				h1-h0, m1-m0, paperQuickMisses)
		}
		out.digest = dg.sum()
		return out, nil
	}}, nil
}
