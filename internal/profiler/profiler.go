// Package profiler implements Rhythm's offline profiling phase (§3.2,
// §3.5.1): the solo-run load sweep that feeds the contribution analyzer,
// the SLA derivation (worst per-window p99 at max load), the Fig. 8
// loadlimit rule, and the Algorithm 1 slacklimit search.
//
// Profiling is "once per LC service": its cost is linear in the number of
// Servpods (M), not in LC x BE combinations (M x N), which is the paper's
// scalability argument against profiling-based co-location.
//
// # Thread safety
//
// All entry points (Run, CachedRun, DeriveSLA, FindSlacklimits,
// CachedSlacklimits, Thresholds) are safe to call from multiple
// goroutines, provided each call receives its own *workload.Service value
// (workload.ByName constructs a fresh one per call) or the callers share a
// Service they all treat as read-only. Internally, load levels and
// Algorithm 1 trial runs fan out across Options.Jobs / SlackOptions.Jobs
// workers; every worker runs an isolated engine seeded from a per-level or
// per-trial substream, so results are bit-identical for every worker
// count. A returned *Profile is immutable by contract: CachedRun hands the
// same pointer to every caller with a matching key, and no consumer may
// mutate it (see DESIGN.md "Concurrency & determinism").
package profiler

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rhythm/internal/analyzer"
	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/loadgen"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/trace"
	"rhythm/internal/workload"
)

// Options configures the profiling sweep.
type Options struct {
	// Levels are the swept load fractions (default: the fine sweep of
	// Fig. 6/8).
	Levels []float64
	// LevelDuration is the solo-run dwell per level (default 15 s of
	// virtual time; the paper profiles longer on real hardware, but the
	// simulated sampler converges much faster).
	LevelDuration time.Duration
	// Seed drives all randomness.
	Seed uint64
	// UseTracer selects how per-Servpod sojourns are measured: when
	// true, the §3.3 request tracer reconstructs them from generated
	// kernel events; when false the service's built-in tracing (the
	// paper's jaeger case, §5.3.2) reports them directly. Fan-out
	// services always use built-in tracing, as in the paper.
	UseTracer bool
	// TraceRequests is the number of requests traced per level when the
	// tracer is used (default 600).
	TraceRequests int
	// Jobs bounds the worker goroutines of the per-level sweep (0 =
	// runtime.NumCPU()). Jobs changes wall-clock time only, never the
	// profile, and is therefore excluded from the profile cache key.
	Jobs int
}

// normalized returns opts with the sweep defaults applied, so that Run and
// the cache key derivation agree on what will actually be swept.
func (o Options) normalized() Options {
	if len(o.Levels) == 0 {
		o.Levels = loadgen.FineSweepLevels()
	}
	if o.LevelDuration <= 0 {
		o.LevelDuration = 15 * time.Second
	}
	if o.TraceRequests <= 0 {
		o.TraceRequests = 600
	}
	return o
}

// Profile is the result of profiling one LC service.
type Profile struct {
	Service *workload.Service
	// SLA is the derived tail-latency target in seconds: the worst
	// sliding-window p99 of a solo run at max load (the Table 1 rule).
	SLA float64
	// LoadProfile holds per-level mean sojourns and tail latencies.
	LoadProfile *analyzer.LoadProfile
	// CoV maps each Servpod to its per-level sojourn CoV across requests
	// (the Fig. 8 series).
	CoV map[string][]float64
	// Contributions are the Eq. 1-5 results, in graph order.
	Contributions []analyzer.Contribution
	// Loadlimits maps each Servpod to its Fig. 8 loadlimit.
	Loadlimits map[string]float64
}

// Contribution returns the named pod's contribution entry.
func (p *Profile) Contribution(pod string) (analyzer.Contribution, bool) {
	for _, c := range p.Contributions {
		if c.Pod == pod {
			return c, true
		}
	}
	return analyzer.Contribution{}, false
}

// DeriveSLA measures the service's SLA the way Table 1 defines it: run the
// LC service alone at its maximum allowable load and take the worst
// sliding-window p99.
func DeriveSLA(svc *workload.Service, seed uint64, duration time.Duration) (float64, error) {
	if duration <= 0 {
		duration = 30 * time.Second
	}
	e, err := engine.New(engine.Config{
		Service: svc,
		Pattern: loadgen.Constant(1.0),
		Seed:    seed,
		Label:   "sla:" + svc.Name,
	})
	if err != nil {
		return 0, err
	}
	st, err := e.Run(duration)
	if err != nil {
		return 0, err
	}
	return st.WorstP99, nil
}

// Run profiles the service: a solo engine run per load level collecting
// per-Servpod sojourn samples and end-to-end tails, optionally measuring
// sojourn means through the §3.3 tracer, then the Eq. 1-5 analysis and the
// Fig. 8 loadlimit rule.
func Run(svc *workload.Service, opts Options) (*Profile, error) {
	if err := svc.Validate(); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	fanOut := len(svc.Graph.Paths()) > 1
	useTracer := opts.UseTracer && !fanOut

	sla, err := DeriveSLA(svc, opts.Seed, 0)
	if err != nil {
		return nil, err
	}

	prof := &Profile{
		Service: svc,
		SLA:     sla,
		LoadProfile: &analyzer.LoadProfile{
			Levels:   append([]float64(nil), opts.Levels...),
			Sojourns: make(map[string][]float64),
		},
		CoV:        make(map[string][]float64),
		Loadlimits: make(map[string]float64),
	}

	var topo *trace.Topology
	if useTracer {
		topo = trace.NewTopology(svc)
	}

	// Each load level is an isolated engine run with a level-keyed seed,
	// so the sweep parallelizes across Jobs workers without perturbing any
	// other level's stream. Results land in per-level slots and are
	// assembled in level order below, keeping the profile bit-identical to
	// a serial sweep.
	type levelOut struct {
		tail     float64
		cov      map[string]float64
		sojourns map[string]float64
	}
	outs := make([]levelOut, len(opts.Levels))
	err = sim.ForEachErr(len(opts.Levels), opts.Jobs, func(li int) error {
		level := opts.Levels[li]
		e, err := engine.New(engine.Config{
			Service:        svc,
			Pattern:        loadgen.Constant(level),
			Seed:           opts.Seed + uint64(li)*7919,
			CollectSamples: true,
			Label:          fmt.Sprintf("profile:%s|level=%g", svc.Name, level),
		})
		if err != nil {
			return err
		}
		st, err := e.Run(opts.LevelDuration)
		if err != nil {
			return err
		}
		// E2ESamples is dead after the tail statistic, so the O(n)
		// in-place selection replaces the seed's copy+sort Quantile
		// (identical result bits; see sim.SelectQuantile). SojournSamples
		// stay untouched: CoV/Mean accumulate in sample order.
		out := levelOut{
			tail:     sim.SelectQuantile(st.E2ESamples, 0.99),
			cov:      make(map[string]float64, len(svc.Components)),
			sojourns: make(map[string]float64, len(svc.Components)),
		}

		// Per-request sojourn CoV for the Fig. 8 loadlimit rule.
		for _, comp := range svc.Components {
			out.cov[comp.Name] = sim.CoV(st.PerPod[comp.Name].SojournSamples)
		}

		// Mean sojourns: through the tracer pipeline, or from the
		// built-in per-request measurements (jaeger stand-in).
		if useTracer {
			means, err := tracerMeans(topo, svc, level, opts, uint64(li))
			if err != nil {
				return err
			}
			for _, comp := range svc.Components {
				out.sojourns[comp.Name] = means[comp.Name]
			}
		} else {
			for _, comp := range svc.Components {
				out.sojourns[comp.Name] = sim.Mean(st.PerPod[comp.Name].SojournSamples)
			}
		}
		outs[li] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		prof.LoadProfile.Tail = append(prof.LoadProfile.Tail, out.tail)
		for _, comp := range svc.Components {
			prof.CoV[comp.Name] = append(prof.CoV[comp.Name], out.cov[comp.Name])
			prof.LoadProfile.Sojourns[comp.Name] = append(
				prof.LoadProfile.Sojourns[comp.Name], out.sojourns[comp.Name])
		}
	}

	prof.Contributions, err = analyzer.Analyze(prof.LoadProfile, svc.Graph)
	if err != nil {
		return nil, err
	}
	for _, comp := range svc.Components {
		ll, err := analyzer.Loadlimit(opts.Levels, prof.CoV[comp.Name])
		if err != nil {
			return nil, err
		}
		prof.Loadlimits[comp.Name] = ll
	}
	return prof, nil
}

// tracerMeans runs the §3.3 pipeline at one load level: generate the
// kernel-event log of a traced request sample and recover per-pod mean
// sojourns from the CPG pairing.
func tracerMeans(topo *trace.Topology, svc *workload.Service, level float64,
	opts Options, levelIdx uint64) (map[string]float64, error) {
	sojourns := make(map[string]queueing.Sojourn, len(svc.Components))
	for _, c := range svc.Components {
		sojourns[c.Name] = c.Station.Solo(level * svc.MaxLoadQPS)
	}
	// Tracing samples a bounded request rate, like production tracers.
	rate := level * svc.MaxLoadQPS
	if rate > 2000 {
		rate = 2000
	}
	if rate < 1 {
		rate = 1
	}
	events, _, err := trace.Generate(topo, sojourns, trace.GenOptions{
		Requests:    opts.TraceRequests,
		Rate:        rate,
		Threads:     4,
		Persistent:  true,
		NoiseEvents: 50,
		Seed:        opts.Seed ^ (levelIdx+1)*0x9e37,
	})
	if err != nil {
		return nil, err
	}
	res, err := trace.Analyze(events, topo.Pods, svc.Graph.Comp)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.PerPod))
	for pod, st := range res.PerPod {
		out[pod] = st.MeanPerRequest
	}
	return out, nil
}

// slackSets are the BE compositions every Algorithm 1 probe must
// survive, the paper's "run the algorithm with representative,
// mixed-intensive BEs and run multiple times to increase its accuracy":
// the Fig. 7 mix (wordcount, imageClassify, LSTM, CPU-stress,
// stream-dram, stream-llc), then stream-dram alone, whose per-core
// bandwidth pressure far exceeds the mix's, and wordcount alone.
var slackSets = [][]bejobs.Type{
	{
		bejobs.Wordcount, bejobs.ImageClassify, bejobs.LSTM,
		bejobs.CPUStress, bejobs.StreamDRAM, bejobs.StreamLLC,
	},
	{bejobs.StreamDRAM},
	{bejobs.Wordcount},
}

// minSlacklimit floors the derived slacklimits at 0.12: the window-p99
// estimate the controller acts on is noisy, and a limit below the noise
// floor lets growth ride the SLA edge where noise dips become
// violations. The paper's smallest derived value is 0.032 on much less
// noisy hardware monitoring.
const minSlacklimit = 0.12

// SlackOptions configures the Algorithm 1 search.
type SlackOptions struct {
	// StepDuration is the run_system dwell per iteration (default 150 s;
	// the paper uses 10 minutes on hardware). Each trial must reach the
	// co-location steady state, or the search underestimates risk and
	// derives unprotective slacklimits. The first third of each dwell
	// is warmup: the BE growth transient is not judged.
	StepDuration time.Duration
	// Substeps divides each Servpod's Algorithm 1 step (1 - C_i/ΣC)
	// into this many fractional moves (default 4), so that reverting
	// one step on violation lands on a usable limit rather than back at
	// 1.0. With K substeps a pod that never triggers a violation
	// converges to exactly its normalized contribution.
	Substeps int
	// Seed drives the search runs.
	Seed uint64
	// Jobs bounds the worker goroutines evaluating one probe's trial
	// matrix (trial loads x BE compositions) concurrently (0 =
	// runtime.NumCPU()). The search outcome is independent of Jobs: each
	// trial is an isolated engine run with a trial-keyed seed and the
	// probe verdict is the OR over the matrix, so Jobs is excluded from
	// the slacklimit cache key.
	Jobs int
}

// normalized returns o with the search defaults applied, so that
// FindSlacklimits and the cache key derivation agree on what will
// actually run.
func (o SlackOptions) normalized() SlackOptions {
	if o.StepDuration <= 0 {
		o.StepDuration = 150 * time.Second
	}
	if o.Substeps <= 0 {
		o.Substeps = 4
	}
	return o
}

// trialLoads returns the constant load fractions each probe's trials run
// at, the two risky operating points: just below the smallest loadlimit
// (every machine may host BEs) and just below the largest (only the
// tolerant machines still do, with the LC near its own saturation and the
// thinnest latency budget). The second is dropped when it is within 2
// points of the first.
func trialLoads(prof *Profile) []float64 {
	lo, hi := 1.0, 0.0
	for _, ll := range prof.Loadlimits {
		lo, hi = min(lo, ll), max(hi, ll)
	}
	load := sim.Clamp(lo-0.02, 0.5, 0.9)
	loads := []float64{load}
	if h := sim.Clamp(hi-0.02, load, 0.95); h > load+0.02 {
		loads = append(loads, h)
	}
	return loads
}

// trialPattern is a trial's load at probe load tl: it ramps from half of
// it up to it, so BE jobs fatten while there is headroom and the system
// then carries that state up the flank, the same shape a production trace
// has.
func trialPattern(tl float64, opts SlackOptions) loadgen.Pattern {
	return loadgen.Replay{Samples: []float64{tl / 2, tl, tl}, Spacing: opts.StepDuration / 2}
}

// FindSlacklimits runs Algorithm 1 for every Servpod: starting from
// slacklimit 1.0, each pod's limit descends by its step size
// ((1 - C_i/SumC)/Substeps) until the co-located system violates the SLA -
// then the pod reverts one step and keeps that value - or until the noise
// floor. Pods are searched in ascending contribution order (coordinate
// descent): tolerant pods reach their small limits first, and the
// sensitive pods then search under the realistic combined interference of
// the tolerant pods' BE jobs, which is where their protective limits
// matter. Every probe must survive the ramp trial under each
// representative BE composition (the paper's "run multiple times with
// representative, mixed-intensive BEs").
func FindSlacklimits(prof *Profile, opts SlackOptions) (map[string]float64, error) {
	opts = opts.normalized()
	if len(prof.Contributions) == 0 {
		return nil, fmt.Errorf("profiler: profile has no contributions")
	}
	loads := trialLoads(prof)

	cur := make(map[string]float64, len(prof.Contributions))
	for _, c := range prof.Contributions {
		cur[c.Pod] = 1.0
	}

	// Ascending contribution order.
	order := append([]analyzer.Contribution(nil), prof.Contributions...)
	sort.Slice(order, func(i, j int) bool { return order[i].Normalized < order[j].Normalized })

	type trialCombo struct{ li, si int }
	var combos []trialCombo
	for li := range loads {
		for si := range slackSets {
			combos = append(combos, trialCombo{li, si})
		}
	}
	// One probe evaluates the whole trial matrix concurrently, and its
	// verdict is the OR over the matrix. Each trial is an isolated,
	// seed-keyed engine run with no side effects, so the first violation
	// decides the probe: it cancels the matrix, running siblings stop at
	// their next control-period boundary and unclaimed ones never start.
	// Whether any trial violates does not depend on Jobs (a trial is
	// skipped only after another one violated), which keeps the search
	// deterministic; errors decide the probe only when none violated.
	trial := func(iter uint64) (bool, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		violated := make([]bool, len(combos))
		err := sim.ForEachErr(len(combos), opts.Jobs, func(ci int) error {
			if ctx.Err() != nil {
				return nil
			}
			li, si := combos[ci].li, combos[ci].si
			v, err := trialRun(ctx, prof, cur, opts, slackSets[si], trialPattern(loads[li], opts),
				iter+uint64(si+1)*7001+uint64(li)*293)
			if v {
				violated[ci] = true
				cancel()
			}
			return err
		})
		for _, v := range violated {
			if v {
				return true, nil
			}
		}
		return false, err
	}

	iter := uint64(0)
	for _, c := range order {
		step := sim.Clamp((1-c.Normalized)/float64(opts.Substeps), 0.01, 0.98)
		for cur[c.Pod] > minSlacklimit {
			prev := cur[c.Pod]
			next := prev - step
			if next < minSlacklimit {
				next = minSlacklimit
			}
			cur[c.Pod] = next
			iter++
			if iter > 400 {
				return cur, nil
			}
			violated, err := trial(iter)
			if err != nil {
				return nil, err
			}
			if violated {
				// Borderline configurations flip on measurement noise;
				// a single violating trial may have nothing to do with
				// this pod's probe. Confirm with two re-runs under
				// different seeds and blame the probe only on a
				// majority (the paper's "run multiple times"). Once the
				// first re-run confirms, the second cannot change the
				// verdict and is skipped.
				votes := 1
				for retry := uint64(1); retry <= 2 && votes < 2; retry++ {
					v, err := trial(iter + retry*50021)
					if err != nil {
						return nil, err
					}
					if v {
						votes++
					}
				}
				if votes < 2 {
					continue
				}
				// Record.pop(): this pod keeps its last safe value.
				cur[c.Pod] = prev
				break
			}
		}
	}
	return cur, nil
}

// trialRun is Algorithm 1's run_system: co-locate with the candidate
// slacklimits for the dwell and report whether the SLA was violated,
// stopping at the verdict (engine.Violates) or, once ctx is cancelled, at
// the next control-period boundary with false. Concurrent trials of one
// probe read the slacklimits map simultaneously; the search mutates it
// only between probes, after every trial goroutine has drained, so the
// reads are race-free.
func trialRun(ctx context.Context, prof *Profile, slacklimits map[string]float64, opts SlackOptions, bes []bejobs.Type, pattern loadgen.Pattern, iter uint64) (bool, error) {
	e, err := trialEngine(prof, slacklimits, opts, bes, pattern, iter)
	if err != nil {
		return false, err
	}
	// A trial fails when the SLA was violated: the engine's guard band
	// already makes the controller aim below the target, so a violation
	// during the dwell means these limits are genuinely unsafe.
	return e.Violates(ctx, opts.StepDuration)
}

// trialEngine builds the co-located engine of one trial.
func trialEngine(prof *Profile, slacklimits map[string]float64, opts SlackOptions, bes []bejobs.Type, pattern loadgen.Pattern, iter uint64) (*engine.Engine, error) {
	th := make(map[string]controller.Thresholds, len(slacklimits))
	for pod, sl := range slacklimits {
		ll := prof.Loadlimits[pod]
		if ll <= 0 {
			ll = 0.85
		}
		th[pod] = controller.Thresholds{Loadlimit: ll, Slacklimit: sl}
	}
	pol, err := controller.NewRhythm(th)
	if err != nil {
		return nil, err
	}
	return engine.New(engine.Config{
		Service: prof.Service,
		Pattern: pattern,
		SLA:     prof.SLA,
		Policy:  pol,
		BETypes: bes,
		Seed:    opts.Seed + iter*104729,
		Warmup:  opts.StepDuration / 3,
		Label:   fmt.Sprintf("slack-trial:%s|iter=%d", prof.Service.Name, iter),
	})
}

// Thresholds assembles the final per-Servpod control thresholds from the
// profile's loadlimits and the Algorithm 1 slacklimits.
func Thresholds(prof *Profile, slacklimits map[string]float64) (map[string]controller.Thresholds, error) {
	out := make(map[string]controller.Thresholds, len(prof.Loadlimits))
	for pod, ll := range prof.Loadlimits {
		sl, ok := slacklimits[pod]
		if !ok {
			return nil, fmt.Errorf("profiler: no slacklimit for Servpod %s", pod)
		}
		out[pod] = controller.Thresholds{Loadlimit: ll, Slacklimit: sl}
	}
	return out, nil
}
