// Package engine is the co-location runtime: it deploys an LC service's
// Servpods on a simulated cluster (one Servpod per machine, as in §5.1),
// offers load from a pattern, computes the interference the resident BE
// jobs impose on each Servpod, samples end-to-end latencies through the
// service call graph, advances BE progress, and drives a controller policy
// every control period through the isolation actuators.
//
// The engine is the substrate every experiment runs on: solo profiling
// sweeps, the Rhythm-vs-Heracles grids of Figs. 9-14, the production-load
// runs of Fig. 15 and the timeline of Fig. 17.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/cluster"
	"rhythm/internal/controller"
	"rhythm/internal/faults"
	"rhythm/internal/interference"
	"rhythm/internal/isolation"
	"rhythm/internal/loadgen"
	"rhythm/internal/metrics"
	"rhythm/internal/obs"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// The engine's fixed sampling grid, the one definition every other
// package reads. RunStats.E2ESamples holds SamplesPerTick entries per
// tick from t=0.
const (
	// TickDt is the simulation step, 100 ms.
	TickDt = 100 * time.Millisecond
	// SamplesPerTick is the number of end-to-end latency samples drawn
	// per tick, 80.
	SamplesPerTick = 80
	// TailWindow is the sliding window of the p99 the controllers read
	// and the SLA statistic is taken over, 3 s.
	TailWindow = 3 * time.Second
)

// Fixed engine parameters.
const (
	// maxBEPerMachine caps BE instances per machine at 15.
	maxBEPerMachine = 15
	// inertiaTau, 4 s, is the time constant with which observed
	// interference inflation approaches its steady-state value (queues
	// filling, caches churning). Real servers do not jump to a new tail
	// latency the instant a co-runner gets another core; this inertia is
	// what gives a 2 s controller room to react.
	inertiaTau = 4 * time.Second
	// slaGuard, 0.12, is the controller's safety headroom: slack is
	// computed against (1-slaGuard)*SLA so that steady-state operation
	// aims a few percent below the target and worst-case noise stays
	// within it (violations still count against the full SLA).
	slaGuard = 0.12
	// maxBlock, 32 ticks, caps the ticks RunUntil computes the operating
	// points of together (one control period at the default 2 s, 20 or
	// 21 ticks); it sizes the block scratch.
	maxBlock = 32
	// lazyFrac, 0.85, sets the latency under which a tick's samples may
	// be left pending in the tail window (passSample): that fraction of
	// the window's last p99. The window's top 1% sits near the p99, so a
	// pending sample is seldom recomputed unless the p99 falls by more
	// than 15% within the window.
	lazyFrac = 0.85
	// lazyMargin, 2^-20, is the relative headroom of the lazy cutoff: the
	// cutoff's plan latency is at most (1-lazyMargin)·τ, far more than the
	// rounding of the exp, the plan combine and the cutoff's own
	// arithmetic can take back.
	lazyMargin = 0x1p-20
	// lazyRing, 64 ticks (6.4 s, over twice TailWindow), is how many lazy
	// ticks' replay records the engine keeps.
	lazyRing = 64
	// lazyDrift, 1/64, is how far in log latency the stage parameters may
	// move before the tick's cutoff is searched again: the search aims
	// that much below τ, and a drift of at most lazyDrift in every stage's
	// log value at the cutoff moves the plan latency by at most that
	// factor.
	lazyDrift = 1.0 / 64
)

// Tick constants: the inertia EMA coefficient 1-exp(-TickDt/inertiaTau)
// and TickDt in hours, the BE Advance timebase.
var (
	inertiaAlpha = 1 - math.Exp(-TickDt.Seconds()/inertiaTau.Seconds())
	tickHours    = TickDt.Hours()
)

// Config describes one engine run. Every machine is a
// cluster.DefaultSpec machine.
type Config struct {
	// Service is the LC workload to deploy (required).
	Service *workload.Service
	// Pattern offers the load as a fraction of the service max (required).
	Pattern loadgen.Pattern
	// SLA is the tail-latency target in seconds the controllers protect.
	// Zero disables slack-based control (used for pure solo profiling).
	SLA float64
	// Policy decides BE control actions; nil means solo run (no BE).
	Policy controller.Policy
	// BETypes are the BE job types to launch, cycled in order as
	// instances are admitted. Empty means no BE jobs.
	BETypes []bejobs.Type
	// Model is the interference model; zero Gamma selects the default.
	Model interference.Model
	// Seed drives all randomness.
	Seed uint64
	// ControlPeriod is the controller interval (default 2 s, §3.5.2).
	ControlPeriod time.Duration
	// Warmup discards the initial transient: utilizations, violations
	// and the worst-p99 statistic only accumulate after this much
	// virtual time (control decisions still run during warmup).
	Warmup time.Duration
	// CollectSamples retains per-pod sojourn and end-to-end samples in
	// the run stats (profiling).
	CollectSamples bool
	// Timeline retains per-control-tick series and the action log
	// (Fig. 17).
	Timeline bool
	// Label names this run's scope on the observability bus (internal/obs)
	// when one is installed; empty derives "service|policy|seed=N". It has
	// no effect on the simulation.
	Label string
	// Faults injects a deterministic fault schedule (internal/faults):
	// load surges, interference storms, machine slowdowns, BE crashes,
	// profile drift and measurement dropout. Nil disables injection
	// entirely — every fault hook below is behind a nil check, so a
	// fault-free run is byte-identical to one on a build without the
	// faults subsystem at all.
	Faults *faults.Schedule
	// ExternalBE hands BE admission to an external dispatcher (the fleet
	// layer's shared scheduler.Scheduler): AllowBEGrowth still grows
	// resident instances but never self-launches; new instances arrive
	// only through AdmitBE, and every kill or crash is recorded for
	// TakeEvicted so the dispatcher can re-queue the job (§4's "interact
	// with scheduler" protocol). BETypes may be empty in this mode — the
	// dispatcher names the type per admission.
	ExternalBE bool
}

// FieldError is a Config validation failure naming the exact field it
// concerns, so callers can report — and tests can pin — which part of a
// configuration is bad.
type FieldError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *FieldError) Error() string { return "engine: Config." + e.Field + ": " + e.Reason }

// Validate checks the configuration before any work runs. Zero values
// with documented defaults (ControlPeriod, Model) are valid — New fills
// them — and everything else out of range fails. All failures are
// returned joined, each a *FieldError naming the Config field.
func (c *Config) Validate() error {
	var errs []error
	fail := func(field, format string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if c.Service == nil {
		fail("Service", "required")
	} else if err := c.Service.Validate(); err != nil {
		fail("Service", "%v", err)
	}
	if c.Pattern == nil {
		fail("Pattern", "required")
	}
	if c.SLA < 0 {
		fail("SLA", "negative tail-latency target %v", c.SLA)
	}
	if c.ControlPeriod < 0 {
		fail("ControlPeriod", "negative control period %v", c.ControlPeriod)
	}
	if c.Warmup < 0 {
		fail("Warmup", "negative warmup %v", c.Warmup)
	}
	if err := c.Faults.Validate(); err != nil {
		fail("Faults", "%v", err)
	}
	return errors.Join(errs...)
}

// fillDefaults fills the zero-value defaults; Validate has already
// rejected out-of-range values.
func (c *Config) fillDefaults() {
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 2 * time.Second
	}
	if c.Model.Gamma == 0 {
		c.Model = interference.Default()
	}
}

// PodStats is the per-Servpod outcome of a run.
type PodStats struct {
	Pod string
	// BEThroughput is the time-weighted mean normalized BE throughput on
	// the pod's machine (§5.1's metric; 1.0 = a solo whole-machine run).
	BEThroughput float64
	// CPUUtil and MemBWUtil are time-weighted mean utilizations.
	CPUUtil   float64
	MemBWUtil float64
	// EMU is the time-weighted mean effective machine utilization.
	EMU float64
	// Kills counts BE jobs killed by StopBE; Completions counts BE jobs
	// that finished.
	Kills       int
	Completions int
	// Crashes counts BE jobs lost to injected BE-crash faults
	// (Config.Faults); always 0 without a fault schedule.
	Crashes int
	// SojournSamples holds the pod's sojourn samples when
	// Config.CollectSamples is set.
	SojournSamples []float64
}

// ActionEvent is one controller decision in the timeline.
type ActionEvent struct {
	At     sim.Time
	Pod    string
	Action controller.Action
}

// RunStats is the outcome of an engine run.
type RunStats struct {
	Policy   string
	Duration time.Duration
	PerPod   map[string]*PodStats
	// WorstP99 is the worst sliding-window p99 observed (the paper's SLA
	// statistic); MeanP99 the time-averaged window p99.
	WorstP99 float64
	MeanP99  float64
	// Violations counts control ticks whose window p99 exceeded the SLA.
	Violations int
	// ViolationSeconds is Violations scaled by the control period: the
	// virtual seconds spent in SLA violation (the resilience metric).
	ViolationSeconds float64
	// DegradedPeriods counts control ticks decided in degraded mode —
	// the latency measurement was NaN or stale under a
	// measurement-dropout fault, so the conservative escalation replaced
	// Algorithm 2. Always 0 without a fault schedule.
	DegradedPeriods int
	// E2ESamples holds end-to-end samples when CollectSamples is set.
	E2ESamples []float64
	// Series and Actions hold the Fig. 17 timeline when Timeline is set.
	Series  map[string]*metrics.Series
	Actions []ActionEvent
}

// MeanEMU returns the across-pod mean EMU.
func (r *RunStats) MeanEMU() float64 {
	return r.podMean(func(p *PodStats) float64 { return p.EMU })
}

// MeanBEThroughput returns the across-pod mean BE throughput.
func (r *RunStats) MeanBEThroughput() float64 {
	return r.podMean(func(p *PodStats) float64 { return p.BEThroughput })
}

// MeanCPUUtil returns the across-pod mean CPU utilization.
func (r *RunStats) MeanCPUUtil() float64 {
	return r.podMean(func(p *PodStats) float64 { return p.CPUUtil })
}

// MeanMemBWUtil returns the across-pod mean memory-bandwidth utilization.
func (r *RunStats) MeanMemBWUtil() float64 {
	return r.podMean(func(p *PodStats) float64 { return p.MemBWUtil })
}

// podMean averages field over the pods, summing in pod-name order: a sum
// in map order could differ in its last bits between identical runs.
func (r *RunStats) podMean(field func(*PodStats) float64) float64 {
	if len(r.PerPod) == 0 {
		return 0
	}
	pods := make([]string, 0, len(r.PerPod))
	for pod := range r.PerPod {
		pods = append(pods, pod)
	}
	sort.Strings(pods)
	var s float64
	for _, pod := range pods {
		s += field(r.PerPod[pod])
	}
	return s / float64(len(pods))
}

// TotalKills sums BE kills across pods.
func (r *RunStats) TotalKills() int {
	n := 0
	for _, p := range r.PerPod {
		n += p.Kills
	}
	return n
}

// TotalCrashes sums fault-injected BE crashes across pods.
func (r *RunStats) TotalCrashes() int {
	n := 0
	for _, p := range r.PerPod {
		n += p.Crashes
	}
	return n
}

// podRuntime is the cold-path AoS view of one machine: topology, BE
// instance list, controller bookkeeping and instruments. Everything the
// tick reads every 100 ms lives in the engine's soaState block instead
// (indexed by idx); the control-plane methods (apply, launch, resume,
// crashBE, AdmitBE) mutate this view and mark the pod's SoA row dirty so
// the next tick re-syncs the derived caches.
type podRuntime struct {
	idx       int // row in Engine.soa
	comp      *workload.Component
	machine   *cluster.Machine
	agent     *isolation.Agent
	instances []*bejobs.Instance
	beSeq     int
	suspended bool
	stats     *PodStats

	// lastAction is the top controller's most recent decision for this
	// machine; it is the §4 feedback signal MachineViews reports to the
	// cluster scheduler (zero value StopBE: not accepting before the
	// first control tick).
	lastAction controller.Action

	rng     *sim.RNG
	growSeq int

	// instCache mirrors instances with each one's current grant resolved:
	// the BE-progress pass reads it instead of doing a per-instance
	// machine.Alloc map lookup per tick. Rebuilt whenever the pod's SoA
	// row is dirty — grants and instance states only change at control,
	// admission, crash and eviction events, all of which mark the row.
	instCache []beInst

	// Per-pod calibration instruments (nil without a bus; every use is
	// nil-safe): the analytic sojourn p99 the current operating point
	// implies, and completed BE jobs on this machine.
	obsSojournP99  *obs.Histogram
	obsCompletions *obs.Counter

	// degraded counts consecutive control periods decided blind (NaN or
	// stale p99 under a measurement-dropout fault); it drives the
	// conservative DisallowBEGrowth -> CutBE escalation and resets to 0
	// the moment a clean measurement returns.
	degraded int
}

// beInst is one entry of podRuntime.instCache: an instance plus its
// resolved allocation (nil when the owner holds no grant, exactly the
// case the scalar loop skipped) and the LLC working set its current core
// count implies.
type beInst struct {
	in     *bejobs.Instance
	alloc  *cluster.Alloc
	wanted float64 // PerCore[ResLLC] * cores, the cache-satisfaction denominator
}

// soaState is the struct-of-arrays hot block of the tick: one row per
// pod, every field a flat slice the chunked passes stream over. The
// control plane never touches it directly — apply/launch/resume/crashBE/
// AdmitBE mutate the podRuntime AoS view and set beDirty, and the demand
// pass re-syncs the derived BE caches (beDemand, beFreq, beCores,
// instCache) before anything reads them. See DESIGN.md §14.
type soaState struct {
	// Demand at the latest tick the block phase reached. Demand and
	// pressure are pure in the load and the BE row, so they are
	// recomputed only when a tick's load differs bitwise from prevLoad,
	// the load of the tick before, or the row was re-synced (opNew); a
	// storm fault changes pressure at a fixed load, so fault runs
	// recompute pressure every tick. A recomputed pressure goes to the
	// block row pressBlk[k*pods+i], flagged in pressNew.
	lcDemand []cluster.Vector
	opNew    []bool
	caps     []cluster.Vector // each machine's capacities, for the pressure map
	pressBlk []cluster.Vector
	pressNew []bool
	prevLoad float64

	// BE aggregates, valid while beDirty is false: the machine's summed
	// BE demand vector, the frequency subcontroller's current BE clock,
	// and the running instances' total cores.
	beDemand []cluster.Vector
	beFreq   []float64
	beCores  []int
	beDirty  []bool

	// Smoothed interference state (inertiaTau); initialized to 1,
	// the lazy-init value the scalar smooth used.
	inflate []float64
	cvInfl  []float64

	// Cached inflation targets per input. Model.Inflation (a math.Pow per
	// pressured resource) and FreqInflation are pure in the pod's
	// pressure vector and frequency cap, so the inflation pass recomputes
	// the (inflate, cvInflate) targets only when that key changes; at a
	// steady operating point most ticks see the previous tick's vector
	// bit for bit. infPress is the pod's pressure as of the latest tick
	// the inflation pass reached. The inertia EMA still runs every tick.
	infPress []cluster.Vector
	infCap   []float64
	infOK    []bool
	infTgt   [][2]float64
	// Each pod's PowMemo holds its last pressures and their powers, so
	// only a pressure that moved is raised to γ. The pressure pass queues
	// every moved pressure of the block's ticks in powX, their resources
	// per recomputed row in powMask (row k*pods+i), and passPow raises
	// them all in one Model.Powers call into powY; the inflation pass
	// settles each tick's powers from the front of powRest.
	powMemo []interference.PowMemo
	powMask []uint8
	powX    []float64
	powY    []float64
	powRest []float64

	// Cached sojourn distribution per operating point, as of the latest
	// tick the block phase reached. The sojourn pass recomputes it —
	// Erlang-C plus a lognormal fit — only when the (qps, inflate,
	// cvInflate, muSkew, sigmaSkew) tuple changes; Station.At is pure, so
	// an unchanged tuple reuses the identical distribution. Constant-load
	// runs (every profiling sweep level) pay Erlang-C once per pod. The
	// two skew entries are the profile-drift fault multipliers and are
	// constant 1 without a fault schedule. sjMu and sjSigma denormalize
	// the log-space parameters so a sample is a bare exp(mu +
	// sigma*normal) — bit-identical to sojourn.Sample, which is exactly
	// that expression over these two fields.
	sojourn []queueing.Sojourn
	sjKey   [][5]float64
	sjOK    []bool
	sjMu    []float64
	sjSigma []float64

	// Sojourn lanes: pod i's laneN[i] cache misses within the block, in
	// tick order, at rows i*maxBlock+l — each miss's (qps, inflate,
	// cvInflate) operating point, its (muSkew, sigmaSkew) and its tick.
	// The block resolves a pod's misses in one Station.AtLanes call into
	// laneOut.
	laneLam  []float64
	laneInf  []float64
	laneCV   []float64
	laneSkew [][2]float64
	laneTick []int
	laneN    []int
	laneOut  []queueing.Sojourn

	// Block scratch: the loads of the block's ticks, and the operating
	// point the tick phase reads per tick k and pod i, at row k*pods+i.
	blkLoad []float64
	op      []opPoint

	// Utilization accumulators.
	cpu []metrics.Usage
	mbw []metrics.Usage
	bet []metrics.Usage
	emu []metrics.Usage

	// Fault scratch, filled by the fault pass each tick; untouched (and
	// unread) when Config.Faults is nil.
	stormMul []float64
	freqCap  []float64
	muSkew   []float64
	sigSkew  []float64

	// Sampling-pass layout: the call graph's plan (its stages in
	// Node.Latency's visiting order; stagePod maps stage -> pod row),
	// per-stage lognormal parameters gathered per tick, the
	// SamplesPerTick×stages draw matrix (draw-major stage-minor, the
	// frozen RNG order) and the per-draw end-to-end latencies.
	plan     *workload.Plan
	stagePod []int
	stageMu  []float64
	stageSig []float64
	vals     []float64
	lats     []float64

	// Lazy sampling (DESIGN.md §9.6). sampler is the batched samplers'
	// kept scratch. tauRef is the window's last p99 the engine read, and
	// cut the last cutoff, computed for the bound cutTau and the stage
	// parameters cutMu and cutSig; cutRow holds the stage values the
	// cutoff search evaluates the plan at. lazy is a ring
	// of replay records, one per tick that left samples pending, at slot
	// seq%lazyRing, with the tick's stage parameters at rows of lazyMu and
	// lazySig; replay is the generator a recompute rewinds. lastAt is the
	// newest tick time handed to the tail window, which clamps to it.
	sampler sim.Sampler
	tauRef  float64
	cut     float64
	cutTau  float64
	cutMu   []float64
	cutSig  []float64
	cutRow  []float64
	lazy    [lazyRing]lazyTick
	lazyMu  []float64
	lazySig []float64
	seq     uint64
	replay  sim.RNG
	lastAt  sim.Time

	warmupAt sim.Time // end of Config.Warmup, precomputed once in New
}

// lazyTick is the replay record of a tick that left samples pending in
// the tail window: its time, tag (seq) and current cutoff (the rows it
// certifies are the ones still pending), and the engine RNG's state
// before the tick drew. pend is cleared once every row is computed.
type lazyTick struct {
	at    sim.Time
	seq   uint64
	cut   float64
	state uint64
	pend  bool
}

// opPoint is one pod's operating point at one tick of a block, as the
// tick phase reads it: the LC memory-bandwidth demand, the station
// utilization and the denormalized sojourn parameters.
type opPoint struct {
	bw, util, mu, sigma float64
}

// Engine executes one configured run.
type Engine struct {
	cfg       Config
	pods      []*podRuntime
	podByName map[string]*podRuntime
	soa       soaState
	tail      *metrics.TailTracker
	rng       *sim.RNG
	stats     *RunStats

	meanP99Accum float64
	meanP99N     int
	lastObserve  sim.Time

	// Incremental-run state. Run is a single RunUntil sweep; the fleet
	// layer instead calls RunUntil once per epoch, interleaving dispatch
	// barriers between slices. cursor is the next tick to execute,
	// nextControl the next control-tick boundary; both persist across
	// RunUntil calls so a chunked run is bitwise identical to one sweep.
	cursor      sim.Time
	nextControl sim.Time

	// verdictOnly marks a Violates run: the ticks skip the once-a-second
	// worst-p99 observation, which only RunStats.WorstP99 reads, the
	// utilization pass, and, with no bus installed, the BE-progress pass
	// (Violates lists the RunStats fields this leaves unset).
	verdictOnly bool

	// evicted accumulates killed/crashed BE instances for TakeEvicted;
	// only populated under Config.ExternalBE.
	evicted []EvictedBE

	// Fault-injection state. lastFaultScan is the previous tick time: the
	// (lastFaultScan, now] window makes each crash fire exactly once and
	// each fault edge report exactly once. staleP99 is the last clean
	// window p99, replayed to the controller under a stale-mode
	// measurement dropout. Both are untouched when cfg.Faults is nil.
	lastFaultScan sim.Time
	staleP99      float64
	faultEdges    []faults.Edge
	obsFaults     *obs.Counter

	// Observability (internal/obs). All fields are zero/nil when no bus
	// was installed at New time, and every use below is a nil check, so an
	// untraced run pays nothing (BenchmarkObsDisabled pins 0 allocs). The
	// bus reads only sim.Time and never touches the engine's RNG streams,
	// so traced and untraced runs are byte-identical on stdout.
	obsScope     obs.Scope
	obsTicks     *obs.Counter
	obsRuns      *obs.Counter
	obsDecisions [5]*obs.Counter
	obsBE        map[string]*obs.Counter
	obsSlackH    *obs.Histogram
	obsP99H      *obs.Histogram
	obsLoadH     *obs.Histogram
}

// New builds an engine: one machine per Servpod, LC pinned per the
// component's reservation.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	e := &Engine{
		cfg:           cfg,
		tail:          metrics.NewTailTracker(TailWindow),
		rng:           sim.NewRNG(cfg.Seed).Fork("engine"),
		lastFaultScan: sim.Time(-1),
		nextControl:   sim.Time(0).Add(cfg.ControlPeriod),
		stats: &RunStats{
			PerPod: make(map[string]*PodStats),
			Series: make(map[string]*metrics.Series),
		},
	}
	if cfg.Policy != nil {
		e.stats.Policy = cfg.Policy.Name()
	} else {
		e.stats.Policy = "solo"
	}
	bus := obs.Active()
	if bus != nil {
		label := cfg.Label
		if label == "" {
			label = fmt.Sprintf("%s|%s|seed=%d", cfg.Service.Name, e.stats.Policy, cfg.Seed)
		}
		e.obsScope = bus.Scope(label)
		e.obsTicks = bus.Counter("rhythm_engine_ticks_total")
		e.obsRuns = bus.Counter("rhythm_engine_runs_total")
		for a := controller.StopBE; a <= controller.AllowBEGrowth; a++ {
			e.obsDecisions[a] = bus.Counter("rhythm_decisions_total", "action", a.String())
		}
		e.obsBE = make(map[string]*obs.Counter, len(beOps))
		for _, op := range beOps {
			e.obsBE[op] = bus.Counter("rhythm_be_events_total", "op", op)
		}
		e.obsSlackH = bus.Histogram("rhythm_decision_slack", obs.DefBuckets)
		e.obsP99H = bus.Histogram("rhythm_window_p99_seconds", obs.LatencyBuckets)
		e.obsLoadH = bus.Histogram("rhythm_offered_load", obs.DefBuckets)
		e.obsFaults = bus.Counter("rhythm_fault_events_total")
	}
	spec := cluster.DefaultSpec()
	for i, comp := range cfg.Service.Components {
		m := cluster.NewMachine(fmt.Sprintf("m%d", i), spec)
		agent := isolation.NewAgent(m, comp.Name)
		if err := agent.PinLC(comp.Cores, comp.LLCWays, comp.MemoryGB, comp.MaxNetGbps); err != nil {
			return nil, fmt.Errorf("engine: pinning %s: %w", comp.Name, err)
		}
		ps := &PodStats{Pod: comp.Name}
		e.stats.PerPod[comp.Name] = ps
		p := &podRuntime{
			comp:    comp,
			machine: m,
			agent:   agent,
			stats:   ps,
			rng:     e.rng.Fork("pod-" + comp.Name),
		}
		if bus != nil {
			// Per-Servpod calibration series. Fleet replicas share
			// component names, so replicated pods aggregate into one
			// series per component — the granularity a deployment's own
			// dashboards use.
			p.obsSojournP99 = bus.Histogram("rhythm_pod_sojourn_p99_seconds",
				obs.LatencyBuckets, "pod", comp.Name)
			p.obsCompletions = bus.Counter("rhythm_be_completions_total", "pod", comp.Name)
		}
		e.pods = append(e.pods, p)
	}
	e.podByName = make(map[string]*podRuntime, len(e.pods))
	for i, p := range e.pods {
		p.idx = i
		e.podByName[p.comp.Name] = p
	}
	e.initSoA()
	e.tail.SetRecompute(e.recompute)
	return e, nil
}

// initSoA sizes the struct-of-arrays block, seeds the smoothing state,
// builds the call graph's plan and maps its stages to pod rows, and
// precomputes the tick constants. Every pod row starts dirty so the first
// tick syncs the BE caches.
func (e *Engine) initSoA() {
	n := len(e.pods)
	s := &e.soa
	s.lcDemand = make([]cluster.Vector, n)
	s.opNew = make([]bool, n)
	s.beDemand = make([]cluster.Vector, n)
	s.beFreq = make([]float64, n)
	s.beCores = make([]int, n)
	s.beDirty = make([]bool, n)
	s.inflate = make([]float64, n)
	s.cvInfl = make([]float64, n)
	s.infPress = make([]cluster.Vector, n)
	s.infCap = make([]float64, n)
	s.infOK = make([]bool, n)
	s.infTgt = make([][2]float64, n)
	s.powMemo = make([]interference.PowMemo, n)
	s.pressBlk = make([]cluster.Vector, n*maxBlock)
	s.pressNew = make([]bool, n*maxBlock)
	s.powMask = make([]uint8, n*maxBlock)
	s.sojourn = make([]queueing.Sojourn, n)
	s.sjKey = make([][5]float64, n)
	s.sjOK = make([]bool, n)
	s.sjMu = make([]float64, n)
	s.sjSigma = make([]float64, n)
	s.laneLam = make([]float64, n*maxBlock)
	s.laneInf = make([]float64, n*maxBlock)
	s.laneCV = make([]float64, n*maxBlock)
	s.laneSkew = make([][2]float64, n*maxBlock)
	s.laneTick = make([]int, n*maxBlock)
	s.laneN = make([]int, n)
	s.laneOut = make([]queueing.Sojourn, maxBlock)
	s.blkLoad = make([]float64, maxBlock)
	s.op = make([]opPoint, n*maxBlock)
	s.cpu = make([]metrics.Usage, n)
	s.mbw = make([]metrics.Usage, n)
	s.bet = make([]metrics.Usage, n)
	s.emu = make([]metrics.Usage, n)
	s.stormMul = make([]float64, n)
	s.freqCap = make([]float64, n)
	s.muSkew = make([]float64, n)
	s.sigSkew = make([]float64, n)
	s.caps = make([]cluster.Vector, n)
	for i, p := range e.pods {
		s.caps[i] = p.machine.Spec.Capacities()
		s.beDirty[i] = true
		// The scalar smooth lazily initialized its state to (1, 1) on
		// first use; the SoA rows start there outright — same first EMA
		// step, no per-tick zero check.
		s.inflate[i], s.cvInfl[i] = 1, 1
	}
	s.plan = workload.NewPlan(e.cfg.Service.Graph)
	for _, c := range s.plan.Stages() {
		s.stagePod = append(s.stagePod, e.podByName[c].idx)
	}
	stages := len(s.stagePod)
	s.stageMu = make([]float64, stages)
	s.stageSig = make([]float64, stages)
	s.vals = make([]float64, SamplesPerTick*stages)
	s.lats = make([]float64, SamplesPerTick)
	s.cutRow = make([]float64, stages)
	s.cutMu = make([]float64, stages)
	s.cutSig = make([]float64, stages)
	s.lazyMu = make([]float64, lazyRing*stages)
	s.lazySig = make([]float64, lazyRing*stages)
	s.warmupAt = sim.Time(0).Add(e.cfg.Warmup)
}

// beOps are the BE lifecycle transitions the engine reports on the bus.
var beOps = []string{"launch", "kill", "suspend", "resume", "grow", "cut", "crash"}

// z99 is the standard-normal 0.99 quantile, the multiplier that turns the
// cached lognormal (mu, sigma) into a per-pod sojourn p99.
var z99 = sim.NormQuantile(0.99)

// beEvent records one BE lifecycle transition on the bus, with the
// instance's allocation after the transition. Free when no bus is active.
func (e *Engine) beEvent(now sim.Time, p *podRuntime, id, op string) {
	if !e.obsScope.Enabled() {
		return
	}
	var cores, ways int
	if al := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: id}); al != nil {
		cores, ways = al.Cores, al.LLCWays
	}
	e.obsScope.BE(int64(now), p.comp.Name, id, op, cores, ways)
	e.obsBE[op].Inc()
}

// beDemand aggregates the running BE instances' pressure on the machine.
func (p *podRuntime) beDemand() cluster.Vector {
	var v cluster.Vector
	for _, in := range p.instances {
		if in.State != bejobs.Running {
			continue
		}
		alloc := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: in.ID})
		if alloc == nil {
			continue
		}
		d := in.Demand(alloc.Cores)
		// Throttled cores draw quadratically less power.
		if alloc.FreqGHz > 0 && alloc.FreqGHz < p.machine.Spec.MaxGHz {
			ratio := alloc.FreqGHz / p.machine.Spec.MaxGHz
			d[cluster.ResPower] *= ratio * ratio
		}
		v = v.Add(d)
	}
	return v
}

// Run executes the configured run for the given duration of virtual time
// and returns the collected statistics.
func (e *Engine) Run(duration time.Duration) (*RunStats, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("engine: non-positive run duration %v", duration)
	}
	end := sim.Time(0).Add(duration)
	e.openRun(duration)
	e.RunUntil(end)
	if e.obsScope.Enabled() {
		e.obsScope.RunPhase(int64(end), "end", fmt.Sprintf("worst_p99=%gs violations=%d",
			e.stats.WorstP99, e.stats.Violations))
	}
	return e.stats, nil
}

// openRun records a run's duration and, under tracing, emits its start
// bracket.
func (e *Engine) openRun(duration time.Duration) {
	e.stats.Duration = duration
	if e.obsScope.Enabled() {
		e.obsRuns.Inc()
		e.obsScope.RunPhase(0, "start", fmt.Sprintf("service=%s policy=%s sla=%gs duration=%v seed=%d",
			e.cfg.Service.Name, e.stats.Policy, e.cfg.SLA, duration, e.cfg.Seed))
	}
}

// Violates answers Algorithm 1's run_system question (§3.5.1) for a
// fresh engine: does the run of the given duration violate the SLA? It
// executes the same blocks and control ticks as Run, one control period
// at a time (RunUntil slices, which TestRunUntilMatchesRun pins to Run's
// bits), and stops at the verdict: true at the first post-warm-up control
// tick whose window p99 exceeds the SLA, so it equals Run(d).Violations >
// 0; false at the end of the run, or at the next control-period boundary
// once ctx is cancelled (the caller no longer needs the answer).
//
// It skips the work whose results only RunStats reads, and nothing
// returns those stats. It takes no once-a-second worst-p99 observation:
// the control ticks read the same window p99 either way, and the lazy
// bound refreshes at them. It runs no utilization pass, and no BE
// progress unless a bus is installed, where rhythm_be_completions_total
// counts the completions: neither feeds the controller, whose input is
// load, slack, p99, pressure and the degraded count. So WorstP99 and
// each pod's CPUUtil and MemBWUtil (and the Timeline series cpu) stay
// zero, and without a bus so do BEThroughput, EMU and Completions (and
// the series be_throughput). Violations, ViolationSeconds, MeanP99, Kills
// and the rest hold what Run would have at the stop.
func (e *Engine) Violates(ctx context.Context, duration time.Duration) (bool, error) {
	if duration <= 0 {
		return false, fmt.Errorf("engine: non-positive run duration %v", duration)
	}
	end := sim.Time(0).Add(duration)
	e.verdictOnly = true
	e.openRun(duration)
	stop := "end"
	for e.cursor < end && e.stats.Violations == 0 {
		if ctx.Err() != nil {
			stop = "cancel"
			break
		}
		e.RunUntil(min(e.nextControl.Add(TickDt), end))
	}
	violated := e.stats.Violations > 0
	if violated {
		stop = "violation"
	}
	if e.obsScope.Enabled() {
		e.obsScope.RunPhase(int64(e.cursor), "end", fmt.Sprintf("stop=%s violations=%d", stop, e.stats.Violations))
	}
	return violated, nil
}

// RunUntil advances the simulation up to (but not including) end on the
// tick grid and returns the stats so far. The tick cursor and the control
// boundary persist across calls, so running one 20 s sweep and running
// ten 2 s slices execute the identical tick/control sequence and consume
// the identical RNG streams — the invariant that lets the fleet layer
// interleave scheduler barriers between slices without perturbing any
// per-machine byte. The caller owns end-of-run bookkeeping (stats.Duration,
// obs run brackets); Run and Violates wrap this with both.
//
// RunUntil runs the ticks in blocks (runBlock). A block ends at the next
// control tick or at end, whichever comes first, and holds at most
// maxBlock ticks; under a fault schedule every block is one tick, because
// crashes change BE state mid-period. The control tick runs after the
// block's last tick.
func (e *Engine) RunUntil(end sim.Time) *RunStats {
	s := &e.soa
	for e.cursor < end {
		n := 0
		for now := e.cursor; now < end && n < maxBlock; now = now.Add(TickDt) {
			load := e.cfg.Pattern.Load(now)
			if e.cfg.Faults != nil {
				// Load surges multiply the offered pattern; both the tick
				// and the controller see the surged load, exactly as a
				// real traffic spike would reach both.
				load *= e.cfg.Faults.LoadMul(now)
			}
			s.blkLoad[n] = load
			n++
			if now >= e.nextControl || e.cfg.Faults != nil {
				break
			}
		}
		e.runBlock(e.cursor, n)
		e.cursor = e.cursor.Add(time.Duration(n-1) * TickDt)
		if e.cursor >= e.nextControl {
			e.controlTick(e.cursor, s.blkLoad[n-1])
			e.nextControl = e.nextControl.Add(e.cfg.ControlPeriod)
		}
		e.cursor = e.cursor.Add(TickDt)
	}
	return e.stats
}

// Now returns the next tick the engine will execute (virtual time reached
// so far).
func (e *Engine) Now() sim.Time { return e.cursor }

// Step advances the engine by exactly one simulation tick at the given
// virtual time and load fraction, without running the controllers: a
// block of one tick. It is the benchmark entry point for the per-tick hot
// path (cmd/rhythm-bench); experiments go through Run, which drives the
// same blocks on the tick grid and interleaves control decisions.
func (e *Engine) Step(now sim.Time, load float64) {
	e.soa.blkLoad[0] = load
	e.runBlock(now, 1)
}

// runBlock advances the world by the n ticks from start, whose loads are
// in blkLoad[:n], as two phases of SoA passes (DESIGN.md §14.1). Between
// control ticks a machine's BE allocations are fixed, so the block phase
// computes every tick's operating point before any tick runs: demand and
// pressure for all n ticks (neither reads inflation), the powers of every
// pressure that moved in one batch (passPow), then inflation and the
// sojourn keys tick by tick, and it resolves each pod's sojourn-cache
// misses together (resolveSojourn); it draws no RNG, emits
// no event and writes no stats. The tick phase then runs utilization, BE
// progress, sampling and the tick epilogue tick by tick. The differential
// tests pin this bit for bit to the pre-SoA scalar tick run tick by tick
// (tickReference, reference_test.go): the per-pod arithmetic is the same
// expressions in the same order, and the sampling step, the only pass
// that consumes engine RNG, draws the identical frozen stream
// (draw-major, stage-minor — DESIGN.md §9) through sim.LognormalDraws.
func (e *Engine) runBlock(start sim.Time, n int) {
	// Fault hooks run first as sparse edits (crashes mutate the AoS view
	// and mark rows dirty; storm/cap/drift magnitudes land in scratch
	// rows), so the passes themselves stay branch-light. Pods are
	// independent machines, so hoisting the per-pod crash check ahead of
	// the arithmetic reorders nothing observable: within a tick the only
	// scope events before the end-of-tick Tick event are the crash BE
	// events, and they stay in pod order. Fault blocks are one tick long.
	if e.cfg.Faults != nil {
		e.passFaults(start)
	}
	for k := 0; k < n; k++ {
		e.passDemand(k)
		e.passPressure(k)
	}
	e.passPow()
	for k := 0; k < n; k++ {
		e.passInflation(k)
		e.passSojourn(k)
	}
	e.resolveSojourn(n)

	s := &e.soa
	// A Violates run skips the passes only RunStats reads (see Violates);
	// on a bus, BE progress also feeds rhythm_be_completions_total.
	utilization := !e.verdictOnly
	beProgress := utilization || e.obsScope.Enabled()
	for k := 0; k < n; k++ {
		now := start.Add(time.Duration(k) * TickDt)
		load := s.blkLoad[k]
		measuring := now >= s.warmupAt
		if utilization {
			e.passUtilization(k, measuring)
		}
		if beProgress {
			e.passBEProgress(k, load, measuring)
		}
		e.passSample(k, now)
		e.finishTick(now, load, load*e.cfg.Service.MaxLoadQPS, measuring)
	}
}

// passFaults applies crash triggers to the AoS view and gathers the
// tick's storm/frequency-cap/drift magnitudes into the fault scratch
// rows. Only called with a fault schedule configured.
func (e *Engine) passFaults(now sim.Time) {
	f := e.cfg.Faults
	s := &e.soa
	for i, p := range e.pods {
		if f.CrashTriggered(e.lastFaultScan, now, p.comp.Name) {
			e.crashBE(p, now)
		}
		s.stormMul[i] = f.InterferenceMul(now, p.comp.Name)
		s.freqCap[i] = f.FreqCapGHz(now, p.comp.Name)
		s.muSkew[i], s.sigSkew[i] = f.Drift(now, p.comp.Name)
	}
}

// passDemand re-syncs the BE caches of any row marked dirty since the
// last tick and gathers per-pod LC demand at block tick k's load, when
// that load differs bitwise from the previous tick's or the row was
// re-synced; opNew tells the pressure pass which rows moved.
func (e *Engine) passDemand(k int) {
	s := &e.soa
	load := s.blkLoad[k]
	moved := math.Float64bits(load) != math.Float64bits(s.prevLoad)
	s.prevLoad = load
	row := s.op[k*len(e.pods):]
	for i, p := range e.pods {
		fresh := moved
		if s.beDirty[i] {
			e.refreshBE(i, p)
			fresh = true
		}
		if fresh {
			s.lcDemand[i] = p.comp.DemandAt(load)
		}
		s.opNew[i] = fresh
		row[i].bw = s.lcDemand[i][cluster.ResMemBW]
	}
}

// refreshBE re-derives one pod's BE row from the AoS view: the summed
// demand vector, the frequency subcontroller's BE clock, the running
// cores, and the per-instance allocation cache the BE-progress pass
// iterates. This is the single AoS -> SoA sync point; every mutation site
// (apply, launch, resume, crashBE, AdmitBE) marks the row dirty.
func (e *Engine) refreshBE(i int, p *podRuntime) {
	s := &e.soa
	s.beDemand[i] = p.beDemand()
	s.beFreq[i] = p.agent.BEFrequency()
	s.beCores[i] = p.runningBEAlloc().Cores
	p.instCache = p.instCache[:0]
	for _, in := range p.instances {
		al := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: in.ID})
		var wanted float64
		if al != nil {
			wanted = in.Spec.PerCore[cluster.ResLLC] * float64(al.Cores)
		}
		p.instCache = append(p.instCache, beInst{in: in, alloc: al, wanted: wanted})
	}
	s.beDirty[i] = false
}

// markDirty flags a pod's SoA row for re-sync on the next tick.
func (e *Engine) markDirty(p *podRuntime) { e.soa.beDirty[p.idx] = true }

// passPressure maps demand to the interference pressure vector of block
// tick k on the rows whose demand moved, with storm faults multiplying
// the pressure before the inflation map — a storm behaves exactly like
// that much more BE demand hammering the machine. It queues each
// recomputed pressure its pod's PowMemo lacks for passPow.
func (e *Engine) passPressure(k int) {
	s := &e.soa
	faultsOn := e.cfg.Faults != nil
	row := k * len(e.pods)
	for i := range e.pods {
		fresh := s.opNew[i] || faultsOn
		s.pressNew[row+i] = fresh
		if !fresh {
			continue
		}
		press := &s.pressBlk[row+i]
		*press = e.cfg.Model.Pressure(s.caps[i], s.lcDemand[i], s.beDemand[i])
		if faultsOn {
			if m := s.stormMul[i]; m != 1 {
				*press = press.Scale(m)
			}
		}
		s.powX, s.powMask[row+i] = s.powMemo[i].Moved(press, s.powX)
	}
}

// passPow raises every pressure the block's pressure rows queued to the
// model's γ in one Model.Powers call, for the inflation pass to settle.
func (e *Engine) passPow() {
	s := &e.soa
	if len(s.powX) == 0 {
		return
	}
	s.powY = slices.Grow(s.powY[:0], len(s.powX))[:len(s.powX)]
	e.cfg.Model.Powers(s.powY, s.powX)
	s.powX, s.powRest = s.powX[:0], s.powY
}

// passInflation maps block tick k's pressure to the latency inflation
// targets (a machine-slowdown frequency cap stretches LC service time
// like any DVFS step-down would), reusing the previous targets while the
// pod's (pressure, frequency cap) key is unchanged, and applies the
// first-order inertia of inertiaTau with the precomputed EMA coefficient
// — the same alpha the scalar smooth recomputed per call, so the same
// bits. A recomputed pressure settles its powers (passPow) first.
func (e *Engine) passInflation(k int) {
	s := &e.soa
	faultsOn := e.cfg.Faults != nil
	row := k * len(e.pods)
	for i, p := range e.pods {
		if s.pressNew[row+i] {
			if mask := s.powMask[row+i]; mask != 0 {
				s.powRest = s.powMemo[i].Settle(mask, s.powRest)
			}
			if press := &s.pressBlk[row+i]; *press != s.infPress[i] {
				s.infPress[i], s.infOK[i] = *press, false
			}
		}
		fc := 0.0
		if faultsOn {
			fc = s.freqCap[i]
		}
		if !s.infOK[i] || fc != s.infCap[i] {
			inflate, cvInflate := e.cfg.Model.InflationMemo(p.comp, &s.infPress[i], &s.powMemo[i])
			if fc > 0 && fc < p.machine.Spec.MaxGHz {
				inflate *= interference.FreqInflation(p.comp, fc, p.machine.Spec.MaxGHz)
			}
			s.infTgt[i] = [2]float64{inflate, cvInflate}
			s.infCap[i], s.infOK[i] = fc, true
		}
		inflate, cvInflate := s.infTgt[i][0], s.infTgt[i][1]
		s.inflate[i] += (inflate - s.inflate[i]) * inertiaAlpha
		s.cvInfl[i] += (cvInflate - s.cvInfl[i]) * inertiaAlpha
	}
}

// passSojourn checks every pod's (qps, inflate, cvInflate, muSkew,
// sigmaSkew) key at block tick k against the cached one and queues each
// miss as a lane for resolveSojourn. A hit reads the cached
// distribution, which is the tick's own unless a miss earlier in the
// block is still pending; resolveSojourn rewrites every tick from a pod's
// first miss on.
func (e *Engine) passSojourn(k int) {
	s := &e.soa
	qps := s.blkLoad[k] * e.cfg.Service.MaxLoadQPS
	faultsOn := e.cfg.Faults != nil
	row := s.op[k*len(e.pods):]
	for i := range e.pods {
		muSkew, sigmaSkew := 1.0, 1.0
		if faultsOn {
			muSkew, sigmaSkew = s.muSkew[i], s.sigSkew[i]
		}
		inflate, cvInflate := s.inflate[i], s.cvInfl[i]
		// Field by field, so the hit path compares inline; == on the
		// [5]float64 key calls the runtime's array equality.
		if key := &s.sjKey[i]; s.sjOK[i] && key[0] == qps && key[1] == inflate &&
			key[2] == cvInflate && key[3] == muSkew && key[4] == sigmaSkew {
			row[i].util, row[i].mu, row[i].sigma = s.sojourn[i].Utilization, s.sjMu[i], s.sjSigma[i]
			continue
		}
		l := i*maxBlock + s.laneN[i]
		s.laneLam[l], s.laneInf[l], s.laneCV[l] = qps, inflate, cvInflate
		s.laneSkew[l], s.laneTick[l] = [2]float64{muSkew, sigmaSkew}, k
		s.laneN[i]++
		s.sjKey[i] = [5]float64{qps, inflate, cvInflate, muSkew, sigmaSkew}
		s.sjOK[i] = true
	}
}

// resolveSojourn computes each pod's queued sojourn lanes in one
// Station.AtLanes call — the block's Erlang-B recursions and lognormal
// fits batched — and fills the operating point of the block's ticks from
// the pod's first miss to the last of its n ticks, carrying the cached
// distribution forward over the ticks that hit.
func (e *Engine) resolveSojourn(n int) {
	s := &e.soa
	pods := len(e.pods)
	for i, p := range e.pods {
		lo, lanes := i*maxBlock, s.laneN[i]
		if lanes == 0 {
			continue
		}
		p.comp.Station.AtLanes(s.laneOut[:lanes], s.laneLam[lo:], s.laneInf[lo:], s.laneCV[lo:], 1)
		l := 0
		for k := s.laneTick[lo]; k < n; k++ {
			if l < lanes && s.laneTick[lo+l] == k {
				mu, sigma := s.laneOut[l].LogParams()
				// Profile drift skews the fitted lognormal away from
				// what was profiled: the mean by muSkew (an additive
				// log-space shift), the log-space sigma by sigmaSkew.
				if muSkew := s.laneSkew[lo+l][0]; muSkew != 1 {
					mu += math.Log(muSkew)
				}
				if sigmaSkew := s.laneSkew[lo+l][1]; sigmaSkew != 1 {
					sigma *= sigmaSkew
				}
				s.sojourn[i], s.sjMu[i], s.sjSigma[i] = s.laneOut[l], mu, sigma
				l++
			}
			op := &s.op[k*pods+i]
			op.util, op.mu, op.sigma = s.sojourn[i].Utilization, s.sjMu[i], s.sjSigma[i]
		}
		s.laneN[i] = 0
	}
}

// passUtilization does the utilization accounting: LC cores are busy in
// proportion to station utilization, BE cores are fully busy while
// running.
func (e *Engine) passUtilization(k int, measuring bool) {
	s := &e.soa
	row := s.op[k*len(e.pods):]
	for i, p := range e.pods {
		lcBusy := float64(p.comp.Cores) * row[i].util
		cpuUtil := (lcBusy + float64(s.beCores[i])) / float64(p.machine.Spec.Cores)
		lcBW := row[i].bw
		servedBW := lcBW + minf(s.beDemand[i][cluster.ResMemBW], p.machine.Spec.MemBWGBs-lcBW)
		mbwUtil := sim.Clamp(servedBW/p.machine.Spec.MemBWGBs, 0, 1)
		if measuring {
			s.cpu[i].Observe(cpuUtil, TickDt)
			s.mbw[i].Observe(mbwUtil, TickDt)
		}
	}
}

// passBEProgress advances BE instances: satisfaction is limited by the
// bandwidth the machine can actually serve and by DVFS throttling, with
// per-instance grants read from the dirty-synced instCache instead of a
// per-tick allocation map lookup.
func (e *Engine) passBEProgress(k int, load float64, measuring bool) {
	s := &e.soa
	faultsOn := e.cfg.Faults != nil
	row := s.op[k*len(e.pods):]
	for i, p := range e.pods {
		sat := 1.0
		if s.beDemand[i][cluster.ResMemBW] > 0 {
			avail := p.machine.Spec.MemBWGBs - row[i].bw
			if avail < 0 {
				avail = 0
			}
			sat = minf(sat, avail/s.beDemand[i][cluster.ResMemBW])
		}
		beFreq := s.beFreq[i]
		if faultsOn {
			if fc := s.freqCap[i]; fc > 0 && fc < beFreq {
				// A slowed machine caps BE clocks too, below whatever
				// the frequency subcontroller already granted.
				beFreq = fc
			}
		}
		freqScale := beFreq / p.machine.Spec.MaxGHz
		beRate := 0.0
		for _, c := range p.instCache {
			if c.alloc == nil {
				continue
			}
			// Cache-bound jobs also slow down when their CAT partition
			// is smaller than their working set.
			instSat := sat
			if c.wanted > 0 {
				if cacheSat := float64(c.alloc.LLCWays) / c.wanted; cacheSat < instSat {
					// Cache starvation degrades but does not stop
					// progress (misses stream to DRAM).
					if cacheSat < 0.2 {
						cacheSat = 0.2
					}
					instSat = cacheSat
				}
			}
			rate := c.in.Rate(c.alloc.Cores, instSat) * freqScale
			done := c.in.Advance(rate, tickHours)
			p.stats.Completions += done
			if done > 0 {
				p.obsCompletions.Add(uint64(done))
			}
			beRate += rate
		}
		if measuring {
			s.bet[i].Observe(beRate, TickDt)
			s.emu[i].Observe(metrics.EMU(load, beRate), TickDt)
		}
		p.stats.BEThroughput = s.bet[i].Mean()
		p.stats.CPUUtil = s.cpu[i].Mean()
		p.stats.MemBWUtil = s.mbw[i].Mean()
		p.stats.EMU = s.emu[i].Mean()
	}
}

// passSample draws block tick k's end-to-end latency samples: gather the
// per-stage lognormal parameters, fill the draw matrix in the frozen
// stream order, then combine the rows column-wise through the sampling
// plan — the exact Node.Latency recursion per row — and bulk-insert into
// the tail window. CollectSamples replays the rows into the per-pod
// sample slices in the same element order the scalar walk appended them.
//
// The tick always draws its whole uniform stream, but computes only the
// rows that can reach the cutoff lazyBound finds (sim.Sampler.DrawsBetween
// up to +Inf); the rest go into the window pending, under the tick's
// replay record, and recompute produces them if a quantile query could
// see them. With no cutoff the filter is empty and every row is computed.
func (e *Engine) passSample(k int, now sim.Time) {
	s := &e.soa
	n := SamplesPerTick
	stages := len(s.stagePod)
	row := s.op[k*len(e.pods):]
	for j, pi := range s.stagePod {
		s.stageMu[j], s.stageSig[j] = row[pi].mu, row[pi].sigma
	}
	s.lastAt = max(s.lastAt, now)
	tau := e.lazyBound()
	cut := 0.0 // certifies nothing: every row is computed
	if tau > 0 {
		cut = s.cut
	}
	state := e.rng.State()
	m := s.sampler.DrawsBetween(s.vals, s.stageMu, s.stageSig, cut, math.Inf(1), e.rng)
	s.plan.Eval(s.lats[:m], s.vals)
	if m < n {
		slot := int(s.seq % lazyRing)
		s.lazy[slot] = lazyTick{at: s.lastAt, seq: s.seq, cut: cut, state: state, pend: true}
		copy(s.lazyMu[slot*stages:], s.stageMu)
		copy(s.lazySig[slot*stages:], s.stageSig)
		e.tail.AddPartial(now, s.lats[:m], n-m, tau, s.seq)
		s.seq++
		return
	}
	e.tail.AddBatch(now, s.lats)
	if e.cfg.CollectSamples {
		for d := 0; d < n; d++ {
			row := s.vals[d*stages : (d+1)*stages]
			for j, pi := range s.stagePod {
				pp := e.pods[pi]
				pp.stats.SojournSamples = append(pp.stats.SojournSamples, row[j])
			}
			e.stats.E2ESamples = append(e.stats.E2ESamples, s.lats[d])
		}
	}
}

// lazyBound returns the bound τ = lazyFrac·tauRef under which the current
// tick may leave samples pending, with its cutoff in soa.cut, or 0 when
// the tick must compute every sample: under CollectSamples, before the
// engine has read a p99, when the replay record's slot still holds a tick
// the window may ask for, or when there is no cutoff. The cutoff is
// searched for e^-lazyDrift·τ and kept while τ stays bitwise the same and
// the stage parameters drift by at most lazyDrift (drift). A new τ (once
// a second) refines it; a larger drift at the same τ moves it by one step
// of cutoff, and over such ticks it closes in on the exact cutoff from
// below.
func (e *Engine) lazyBound() float64 {
	s := &e.soa
	if e.cfg.CollectSamples || !(s.tauRef > 0) || math.IsInf(s.tauRef, 1) {
		return 0
	}
	if old := &s.lazy[s.seq%lazyRing]; old.pend && s.lastAt.Sub(old.at) <= TailWindow {
		return 0
	}
	tau := lazyFrac * s.tauRef
	if moved := tau != s.cutTau; moved || !(s.drift() <= lazyDrift) {
		s.cut = s.cutoff(s.stageMu, s.stageSig, tau*math.Exp(-lazyDrift), s.cut, moved)
		s.cutTau = tau
		copy(s.cutMu, s.stageMu)
		copy(s.cutSig, s.stageSig)
	}
	if s.cut <= 0 {
		return 0
	}
	return tau
}

// drift bounds how far the log plan latency at the cutoff can have moved
// since the stage parameters it was searched for: every stage's log value
// there moved by mu'-mu + (sigma'-sigma)·cut, and the plan latency, made
// of sums and maxima, moves by at most the largest such factor. A
// parameter that is not finite, or a negative sigma (the cutoff then
// certifies nothing), gives +Inf.
func (s *soaState) drift() float64 {
	d := 0.0
	for j, m := range s.stageMu {
		sg := s.stageSig[j]
		if math.IsNaN(m) || math.IsInf(m, 0) || !(sg >= 0) || math.IsInf(sg, 1) {
			return math.Inf(1)
		}
		d = max(d, m-s.cutMu[j]+(sg-s.cutSig[j])*s.cut)
	}
	return d
}

// cutoff returns a normal z > 0 at which the plan latency of the stage
// values exp(mu_s + sigma_s·z) is at most (1-lazyMargin)·tau, or 0 when
// it finds none or a stage's parameters are not finite with sigma_s >= 0.
// A row whose every normal is at most z then has a latency below tau: a
// stage value grows with its normal and the plan latency with each stage
// value (sums and maxima), and lazyMargin covers the rounding.
//
// f(z) = ln L(z) - ln τ', with L the plan latency, is convex (sums and
// maxima of log-convex terms are log-convex) with its slope between the
// smallest and the largest sigma_s (lo, hi). So from one evaluation at
// start (z99 when start is not positive), z - f/hi when f <= 0, or z -
// f/lo when f > 0, is at most the root: the one step the tick takes from
// its last cutoff. With refine, that evaluation instead brackets the
// root — z - f/lo when f <= 0 is at or above it — and two secant steps
// narrow the bracket from below: by convexity the chord lies above f, so
// its root is at most f's. Where L under- or overflows, cutoff stops at
// the last point it could evaluate.
func (s *soaState) cutoff(mu, sigma []float64, tau, start float64, refine bool) float64 {
	lo, hi := math.Inf(1), 0.0
	for j, m := range mu {
		sg := sigma[j]
		if math.IsNaN(m) || math.IsInf(m, 0) || !(sg >= 0) || math.IsInf(sg, 1) {
			return 0
		}
		lo, hi = min(lo, sg), max(hi, sg)
	}
	if hi == 0 || !(tau > 0) {
		return 0
	}
	lnTau := math.Log(tau) + math.Log1p(-lazyMargin)
	// f is NaN where L is too far from 1 for its rounding to stay
	// relative (underflow, overflow).
	f := func(z float64) float64 {
		for j, m := range mu {
			s.cutRow[j] = math.Exp(m + sigma[j]*z)
		}
		var l [1]float64
		s.plan.Eval(l[:], s.cutRow)
		if !(l[0] >= 0x1p-1000 && l[0] <= 0x1p1000) {
			return math.NaN()
		}
		return math.Log(l[0]) - lnTau
	}
	z := start
	if !(z > 0) {
		z = z99
	}
	d := f(z)
	if math.IsNaN(d) {
		return 0
	}
	var za, fa, zb, fb float64 // za at most the root, zb at least it
	switch {
	case d > 0 && lo == 0:
		return 0
	case d > 0:
		za, zb, fb = z-d/lo, z, d
		if !refine {
			return max(za, 0)
		}
		fa = f(za)
	case !refine || lo == 0:
		return z - d/hi
	default:
		za, fa, zb = z, d, z-d/lo
		fb = f(zb)
	}
	for range 2 {
		if !(fa <= 0 && fb > fa) {
			break
		}
		zs := za - fa*(zb-za)/(fb-fa)
		fs := f(zs)
		if !(fs <= 0) {
			return max(zs, 0)
		}
		za, fa = zs, fs
	}
	return max(za, 0)
}

// recompute is the tail window's hook for the samples a lazy tick left
// pending: it rewinds a generator to the tick's stream position and,
// from the same stage parameters and through the same plan, computes the
// skipped rows that can reach floor — their own bits. It does not go all
// the way down to the floor: the rows it leaves pending are those the
// cutoff for lazyFrac·floor certifies, so a window whose p99 keeps
// falling does not call back for every small step. When no lower cutoff
// helps, it computes every row still pending.
func (e *Engine) recompute(tag uint64, floor float64, dst []float64) (int, float64) {
	s := &e.soa
	slot := int(tag % lazyRing)
	rec := &s.lazy[slot]
	if rec.seq != tag || !rec.pend {
		panic("engine: tail window asked for a lazy tick whose record is gone")
	}
	stages := len(s.stagePod)
	mu, sigma := s.lazyMu[slot*stages:][:stages], s.lazySig[slot*stages:][:stages]
	tau := lazyFrac * floor
	cut := s.cutoff(mu, sigma, tau, rec.cut, true)
	if !(cut < rec.cut) {
		cut = 0
	}
	s.replay.Reseed(rec.state)
	m := s.sampler.DrawsBetween(s.vals, mu, sigma, cut, rec.cut, &s.replay)
	s.plan.Eval(dst[:m], s.vals)
	rec.cut = cut
	rec.pend = m < len(dst)
	return m, tau
}

// finishTick is the shared tick epilogue: the once-per-second window
// observation (the paper records the p99 once per second, §5.1's SLA
// statistic; a Violates run skips it), tick counters and fault-edge
// reporting.
func (e *Engine) finishTick(now sim.Time, load, qps float64, measuring bool) {
	if measuring && !e.verdictOnly && now-e.lastObserve >= sim.Time(time.Second) {
		e.lastObserve = now
		e.tail.ObserveWindow(now)
		e.soa.tauRef = e.tail.P99()
		worst, _ := e.tail.Worst()
		e.stats.WorstP99 = worst
	}

	e.obsTicks.Inc()
	if e.obsScope.Enabled() {
		e.obsScope.Tick(int64(now), int64(TickDt), load, qps, SamplesPerTick)
		if e.cfg.Faults != nil {
			e.emitFaultEdges(now)
		}
	}
	e.lastFaultScan = now
}

// RunPass executes one named pass of the SoA tick in isolation, as in a
// block of one tick at the given time and load — the per-pass
// cost-attribution entry point for internal/benchmarks and
// cmd/rhythm-bench. Valid names: "demand" (dirty BE re-sync + LC demand
// gather when the load moved), "inflation" (pressure where the demand
// moved + inflation + inertia), "sojourn" (cache-key check and refresh),
// "sample" (draw matrix + plan combine + tail insert at the block's first
// tick's operating point; consumes engine RNG). Reports false for an
// unknown name. Experiments never call this; they go through
// Run/RunUntil.
func (e *Engine) RunPass(name string, now sim.Time, load float64) bool {
	e.soa.blkLoad[0] = load
	switch name {
	case "demand":
		e.passDemand(0)
	case "inflation":
		e.passPressure(0)
		e.passPow()
		e.passInflation(0)
	case "sojourn":
		e.passSojourn(0)
		e.resolveSojourn(1)
	case "sample":
		e.passSample(0, now)
	default:
		return false
	}
	return true
}

// emitFaultEdges reports fault activations and recoveries in the tick's
// (lastFaultScan, now] window on the bus. Only called with a bus
// installed; untraced runs never scan.
func (e *Engine) emitFaultEdges(now sim.Time) {
	e.faultEdges = e.cfg.Faults.EdgesIn(e.faultEdges[:0], e.lastFaultScan, now)
	for _, edge := range e.faultEdges {
		ev := edge.Event
		op := "start"
		if !edge.Start {
			op = "end"
		}
		mag := ev.Magnitude
		detail := ""
		switch ev.Kind {
		case faults.MachineSlowdown:
			mag = ev.FreqGHz
		case faults.ProfileDrift:
			mag = ev.MuSkew
		case faults.BECrash:
			detail = "restart_delay=" + ev.RestartDelay.String()
		case faults.MeasurementDropout:
			detail = "mode=" + string(ev.Mode)
		}
		e.obsScope.Fault(int64(now), ev.Pod, string(ev.Kind), op, mag, detail)
		e.obsFaults.Inc()
	}
}

// crashBE is the BE-crash fault: every instance on the machine dies at
// once (unlike StopBE, these count as crashes, not policy kills); the
// schedule's restart delay then blocks launch until it expires.
func (e *Engine) crashBE(p *podRuntime, now sim.Time) {
	for _, in := range p.instances {
		if in.State == bejobs.Running || in.State == bejobs.Suspended {
			in.State = bejobs.Killed
			p.stats.Crashes++
			if e.cfg.ExternalBE {
				e.evicted = append(e.evicted, EvictedBE{Pod: p.comp.Name, ID: in.ID, Type: in.Spec.Type, Crashed: true})
			}
		}
		p.agent.KillBE(in.ID)
		e.beEvent(now, p, in.ID, "crash")
	}
	p.instances = p.instances[:0]
	p.suspended = false
	e.markDirty(p)
}

// runningBEAlloc sums allocations of running (not suspended) instances.
func (p *podRuntime) runningBEAlloc() cluster.Alloc {
	var a cluster.Alloc
	for _, in := range p.instances {
		if in.State != bejobs.Running {
			continue
		}
		if al := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: in.ID}); al != nil {
			a.Cores += al.Cores
			a.LLCWays += al.LLCWays
			a.MemoryGB += al.MemoryGB
		}
	}
	return a
}

// controlTick runs the top controller and the four subcontrollers on every
// machine (§3.5.2).
func (e *Engine) controlTick(now sim.Time, load float64) {
	// truthP99 is what the latency tracker actually measured; p99 is what
	// the controller gets to see. They differ only under a
	// measurement-dropout fault, which poisons the controller's view (NaN
	// or a stale replay) while the run statistics stay honest.
	truthP99 := e.tail.P99()
	e.soa.tauRef = truthP99
	p99 := truthP99
	degraded := false
	degradedCause := ""
	if e.cfg.Faults != nil {
		if mode, ok := e.cfg.Faults.Dropout(now); ok {
			degraded = true
			if mode == faults.DropNaN {
				p99 = math.NaN()
				degradedCause = "p99 NaN"
			} else {
				p99 = e.staleP99
				degradedCause = "p99 stale"
			}
		} else {
			e.staleP99 = truthP99
		}
	}
	slack := 1.0
	if e.cfg.SLA > 0 {
		guarded := e.cfg.SLA * (1 - slaGuard)
		slack = (guarded - p99) / guarded
	}
	if now >= sim.Time(0).Add(e.cfg.Warmup) {
		if e.cfg.SLA > 0 && truthP99 > e.cfg.SLA {
			e.stats.Violations++
			e.stats.ViolationSeconds += e.cfg.ControlPeriod.Seconds()
		}
		// Time-averaged window p99.
		e.meanP99Accum += truthP99
		e.meanP99N++
		e.stats.MeanP99 = e.meanP99Accum / float64(e.meanP99N)
	}
	if degraded {
		e.stats.DegradedPeriods++
	}

	if !math.IsNaN(slack) {
		e.obsSlackH.Observe(slack)
	}
	if !math.IsNaN(p99) {
		e.obsP99H.Observe(p99)
	}
	e.obsLoadH.Observe(load)
	hasBE := e.cfg.Policy != nil && (len(e.cfg.BETypes) > 0 || e.cfg.ExternalBE)
	for _, p := range e.pods {
		if e.soa.sjOK[p.idx] {
			// Per-Servpod analytic tail at the current operating point:
			// the p99 of the pod's fitted lognormal sojourn. This is the
			// series `rhythm calibrate` matches against a deployment's
			// per-pod latency dashboards.
			p.obsSojournP99.Observe(math.Exp(e.soa.sjMu[p.idx] + z99*e.soa.sjSigma[p.idx]))
		}
		// in is the pod's full measured state. Degraded carries the count
		// of consecutive preceding blind periods (captured before the
		// healthy-path reset below), Pressure the machine's smoothed
		// interference inflation — the inputs the zoo policies forecast
		// and score from. Explain asks for a reason only under tracing.
		traced := e.obsScope.Enabled()
		in := controller.PolicyInput{
			Pod:      p.comp.Name,
			Load:     load,
			Slack:    slack,
			P99:      p99,
			Pressure: e.soa.inflate[p.idx],
			Degraded: p.degraded,
			Now:      now,
			Explain:  traced,
		}
		var act controller.Action
		reason := "no BE policy"
		switch {
		case !hasBE:
			act = controller.SuspendBE
		case degraded:
			// The measurement pipeline is down: no action may derive
			// from the NaN/stale slack. Escalate conservatively with
			// the blindness count instead (DisallowBEGrowth, then
			// CutBE), and recover the moment measurements return.
			p.degraded++
			act = controller.Degraded(p.degraded)
			if traced {
				reason = controller.DegradedReason(p.degraded, degradedCause)
			}
		default:
			p.degraded = 0
			act, reason = e.cfg.Policy.Decide(in)
		}
		p.lastAction = act
		if traced {
			e.obsScope.Decision(int64(now), p.comp.Name, act.String(), load, slack, p99, reason)
		}
		e.obsDecisions[act].Inc()
		// A degraded period hands apply a slack of 0 — the most
		// conservative in-band value — so CutBE severity and the
		// subcontrollers never see NaN or a stale number.
		applySlack := slack
		if degraded {
			applySlack = 0
		}
		e.apply(p, act, now, load, applySlack)
		if e.cfg.Timeline {
			e.stats.Actions = append(e.stats.Actions, ActionEvent{At: now, Pod: p.comp.Name, Action: act})
			e.record(now, p, load, applySlack)
		}
	}
}

// apply executes a top-controller action through the subcontrollers.
func (e *Engine) apply(p *podRuntime, act controller.Action, now sim.Time, load, slack float64) {
	switch act {
	case controller.StopBE:
		for _, in := range p.instances {
			if in.State == bejobs.Running || in.State == bejobs.Suspended {
				in.State = bejobs.Killed
				p.stats.Kills++
				if e.cfg.ExternalBE {
					e.evicted = append(e.evicted, EvictedBE{Pod: p.comp.Name, ID: in.ID, Type: in.Spec.Type})
				}
			}
			p.agent.KillBE(in.ID)
			e.beEvent(now, p, in.ID, "kill")
		}
		p.instances = p.instances[:0]
		p.suspended = false

	case controller.SuspendBE:
		// Pause: jobs keep their memory space but stop executing
		// (§3.5.2); their cores and cache ways return to the pool so
		// that resuming later re-grows from the minimal slice instead
		// of slamming a full allocation back at high load.
		for _, in := range p.instances {
			if in.State == bejobs.Running {
				in.State = bejobs.Suspended
				e.beEvent(now, p, in.ID, "suspend")
			}
			p.agent.ParkBE(in.ID)
		}
		p.suspended = true

	case controller.CutBE:
		e.resume(p, now)
		// The paper leaves CutBE's magnitude open ("reduces part of
		// their allocated resources"); cut harder the deeper the slack
		// has fallen into the band, so a fast-rising load sheds BE
		// pressure before it violates.
		steps := 1 + int(3*sim.Clamp(1-2*slack/maxSlacklimit(e.cfg.Policy, p.comp.Name), 0, 1))
		for _, in := range p.instances {
			for i := 0; i < steps; i++ {
				p.agent.CutBE(in.ID)
			}
			p.agent.AdjustBEMemory(in.ID, false)
			e.beEvent(now, p, in.ID, "cut")
		}

	case controller.DisallowBEGrowth:
		e.resume(p, now)

	case controller.AllowBEGrowth:
		e.resume(p, now)
		// Memory subcontroller: every job gains a memory step (memory
		// capacity is partitioned and interference-free). The CPU/LLC
		// subcontroller works at one-core/10%-LLC granularity (§3.5.2):
		// one instance grows per period, round-robin, so the latency
		// impact of each step stays inside the slack band.
		for _, in := range p.instances {
			p.agent.AdjustBEMemory(in.ID, true)
		}
		if len(p.instances) > 0 {
			p.growSeq++
			in := p.instances[p.growSeq%len(p.instances)]
			if p.agent.GrowBE(in.ID) {
				e.beEvent(now, p, in.ID, "grow")
			}
		}
		// Under ExternalBE the dispatcher owns admission: the machine
		// only signals Accepting (via MachineViews) and waits for
		// AdmitBE.
		if !e.cfg.ExternalBE && len(p.instances) < maxBEPerMachine {
			e.launch(p, now)
		}
	}

	// Frequency subcontroller: throttle BE when the socket power budget
	// is at risk, restore otherwise (§3.5.2).
	lcDemand := p.comp.DemandAt(load)
	draw := interference.PowerDraw(p.machine.Spec, lcDemand, p.beDemand())
	if draw > 0.8*p.machine.Spec.TDPWatts {
		p.agent.StepDownBEFrequency()
	} else {
		p.agent.RestoreBEFrequency()
	}

	// Network subcontroller: B_link - 1.2*B_LC to BE (§3.5.2).
	p.agent.SetBENetwork(lcDemand[cluster.ResNetBW])

	// Every action path above may have re-granted allocations or flipped
	// instance states; the next tick re-syncs this pod's SoA row.
	e.markDirty(p)
}

// resume restarts suspended instances from the minimal slice; instances
// that cannot get a core yet stay suspended and retry next period.
func (e *Engine) resume(p *podRuntime, now sim.Time) {
	if !p.suspended {
		return
	}
	allUp := true
	for _, in := range p.instances {
		if in.State != bejobs.Suspended {
			continue
		}
		if p.agent.UnparkBE(in.ID) {
			in.State = bejobs.Running
			e.beEvent(now, p, in.ID, "resume")
		} else {
			allUp = false
		}
	}
	p.suspended = !allUp
	e.markDirty(p)
}

// launch admits one new BE instance with the §3.5.2 starting slice. A
// machine without headroom refuses before the instance id is formatted,
// so the refusal allocates nothing.
func (e *Engine) launch(p *podRuntime, now sim.Time) {
	if e.cfg.Faults != nil && e.cfg.Faults.CrashBlocked(now, p.comp.Name) {
		return // crash restart delay: the BE runtime is still coming back
	}
	if !p.agent.CanLaunchBE() {
		return // no headroom; try again next period
	}
	ty := e.cfg.BETypes[p.beSeq%len(e.cfg.BETypes)]
	e.place(p, fmt.Sprintf("%s-%s-%d", p.comp.Name, ty, p.beSeq), ty, now)
}

// place grants a new BE instance its starting slice on p's machine and
// adds it to the pod, reporting false — and leaving the machine
// untouched — when the agent refuses it or the type is unknown.
func (e *Engine) place(p *podRuntime, id string, ty bejobs.Type, now sim.Time) bool {
	if err := p.agent.LaunchBE(id); err != nil {
		return false
	}
	in, err := bejobs.NewInstance(id, ty)
	if err != nil {
		p.agent.KillBE(id)
		return false
	}
	p.beSeq++
	p.instances = append(p.instances, in)
	e.markDirty(p)
	e.beEvent(now, p, id, "launch")
	return true
}

// EvictedBE is one BE instance the machine evicted — a policy kill
// (StopBE) or a fault crash — reported to the external dispatcher so it
// can re-queue the job (§1: BE jobs are second-class citizens that may be
// rescheduled at any time).
type EvictedBE struct {
	Pod     string
	ID      string
	Type    bejobs.Type
	Crashed bool
}

// MachineView is one machine's report to the cluster scheduler: the top
// controller's accept/deny feedback (§4) plus free capacity, in the shape
// scheduler.MachineState wants.
type MachineView struct {
	Pod          string
	Accepting    bool
	FreeCores    int
	FreeMemoryGB float64
	Resident     int
}

// MachineViews appends one view per machine to dst (in pod order, the
// stable order dispatch tie-breaks rely on) and returns it. A machine
// accepts when its last top-controller decision was AllowBEGrowth and it
// has a BE slot free; before the first control tick nothing accepts.
func (e *Engine) MachineViews(dst []MachineView) []MachineView {
	for _, p := range e.pods {
		dst = append(dst, MachineView{
			Pod:          p.comp.Name,
			Accepting:    p.lastAction == controller.AllowBEGrowth && len(p.instances) < maxBEPerMachine,
			FreeCores:    p.machine.FreeCores(),
			FreeMemoryGB: p.machine.FreeMemoryGB(),
			Resident:     len(p.instances),
		})
	}
	return dst
}

// AdmitBE places one externally dispatched BE instance on the named
// machine with the §3.5.2 starting slice. It reports false — and leaves
// the machine untouched — when the engine is not in ExternalBE mode, the
// pod is unknown or full, a crash restart delay is pending, or the
// isolation agent has no headroom for even the starting slice; the
// dispatcher should then re-queue the job.
func (e *Engine) AdmitBE(pod string, ty bejobs.Type, id string) bool {
	if !e.cfg.ExternalBE {
		return false
	}
	p, ok := e.podByName[pod]
	if !ok || len(p.instances) >= maxBEPerMachine {
		return false
	}
	if e.cfg.Faults != nil && e.cfg.Faults.CrashBlocked(e.cursor, pod) {
		return false
	}
	return e.place(p, id, ty, e.cursor)
}

// TakeEvicted returns the BE instances evicted since the last call and
// resets the list. Only populated under Config.ExternalBE. The returned
// slice is a view of the engine's internal buffer, valid until the next
// eviction accrues (the next control tick or crash fault after this
// call): the fleet dispatcher consumes it inside the same epoch barrier,
// so re-queueing stays allocation-free. Callers that need to retain
// entries across further engine progress must copy them out.
func (e *Engine) TakeEvicted() []EvictedBE {
	ev := e.evicted
	e.evicted = e.evicted[:0]
	return ev
}

// record appends the Fig. 17 series for one pod.
func (e *Engine) record(now sim.Time, p *podRuntime, load, slack float64) {
	add := func(name string, v float64) {
		key := p.comp.Name + "/" + name
		s, ok := e.stats.Series[key]
		if !ok {
			s = &metrics.Series{Name: key}
			e.stats.Series[key] = s
		}
		s.Append(now, v)
	}
	beAlloc := p.runningBEAlloc()
	running := 0
	for _, in := range p.instances {
		if in.State == bejobs.Running {
			running++
		}
	}
	add("load", load)
	add("slack", slack)
	add("cpu", e.soa.cpu[p.idx].Mean())
	add("be_llc", float64(beAlloc.LLCWays))
	add("be_cores", float64(beAlloc.Cores))
	add("be_instances", float64(running))
	add("be_throughput", e.soa.bet[p.idx].Mean())
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// maxSlacklimit returns the pod's slacklimit under the policy, defaulting
// to Heracles' 0.10 when the policy does not expose one. The capability
// interface is controller.SlacklimitReporter, so third-party registry
// policies get correct CutBE step sizing without the engine knowing any
// concrete type.
func maxSlacklimit(pol controller.Policy, pod string) float64 {
	if sl, ok := pol.(controller.SlacklimitReporter); ok {
		if v := sl.SlacklimitFor(pod); v > 0 {
			return v
		}
	}
	return 0.10
}
