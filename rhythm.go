// Package rhythm is a Go reproduction of "Rhythm: Component-distinguishable
// Workload Deployment in Datacenters" (Zhao et al., EuroSys 2020): a
// co-location controller that deploys best-effort batch (BE) jobs alongside
// latency-critical (LC) services aggressively on the Servpods that
// contribute little to the service's tail latency, while protecting the
// SLA on the Servpods that contribute a lot.
//
// The package is the public facade over the full pipeline:
//
//	svc, _ := rhythm.Service("E-commerce")          // Table 1 catalog
//	sys, _ := rhythm.Deploy(svc, rhythm.Options{})  // profile once (§3.2-§3.5.1)
//	cmp, _ := sys.Compare(rhythm.RunConfig{         // co-locate, vs Heracles
//	    Pattern:  rhythm.ConstantLoad(0.65),
//	    BETypes:  []rhythm.BEType{rhythm.Wordcount},
//	    Duration: 2 * time.Minute,
//	})
//
// Deploy runs the offline phase: the request tracer reconstructs
// per-Servpod sojourn times from kernel-style events (§3.3), the
// contribution analyzer computes each Servpod's tail-latency contribution
// (Eq. 1-5, §3.4), and the thresholding phase derives each Servpod's
// loadlimit (Fig. 8) and slacklimit (Algorithm 1). The returned System
// runs the per-machine controllers of §3.5.2 (Algorithm 2 with the four
// subcontrollers) against the simulated cluster substrate.
//
// Everything physical in the paper — machines, isolation mechanisms
// (cpuset/CAT/qdisc/RAPL), the LC applications and the BE benchmarks — is
// simulated; see DESIGN.md for the substitution map, and the Experiments
// registry for regenerating every table and figure of the evaluation.
package rhythm

import (
	"io"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/calibration"
	"rhythm/internal/controller"
	"rhythm/internal/core"
	"rhythm/internal/engine"
	"rhythm/internal/experiments"
	"rhythm/internal/faults"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/profiler"
	"rhythm/internal/replay"
	"rhythm/internal/workload"
)

// Re-exported core types. The aliases keep the downstream API in one
// import while the implementation stays in focused internal packages.
type (
	// ServiceSpec is one LC workload from Table 1 of the paper.
	ServiceSpec = workload.Service
	// Component is one Servpod (LC service component) of a workload.
	Component = workload.Component
	// Options configures Deploy's offline profiling phase.
	Options = core.Options
	// System is a deployed Rhythm instance: profile + thresholds +
	// policy.
	System = core.System
	// RunConfig shapes a co-location run.
	RunConfig = core.RunConfig
	// Comparison holds a Rhythm-vs-Heracles result pair.
	Comparison = core.Comparison
	// RunStats is the outcome of one run.
	RunStats = engine.RunStats
	// PodStats is the per-Servpod outcome of one run.
	PodStats = engine.PodStats
	// BEType names a best-effort job type from Table 1.
	BEType = bejobs.Type
	// Thresholds is a Servpod's (loadlimit, slacklimit) control pair.
	Thresholds = controller.Thresholds
	// Action is a top-controller decision (Algorithm 2).
	Action = controller.Action
	// LoadPattern yields the offered load fraction over virtual time.
	LoadPattern = loadgen.Pattern
	// Profile is the offline profiling result of one service.
	Profile = profiler.Profile
	// ExperimentTable is one regenerated paper table or figure.
	ExperimentTable = experiments.Table
	// ExperimentOptions shapes experiment runs (seed, quick/full scale,
	// worker count).
	ExperimentOptions = experiments.Options
	// ExperimentContext caches deployed systems across experiments. It is
	// safe for concurrent use; ExperimentContext.RunAll fans the registry
	// out across a worker pool with byte-identical tables for any worker
	// count (see DESIGN.md "Concurrency & determinism").
	ExperimentContext = experiments.Context
	// ExperimentResult is one experiment's outcome in a RunAll batch.
	ExperimentResult = experiments.Result
	// ProfileOptions configures the offline load sweep (Options.Profile).
	ProfileOptions = profiler.Options
	// SlackOptions configures the Algorithm 1 slacklimit search
	// (Options.Slack): the dwell per probe (default 150 s), the substeps
	// per Servpod step (default 4), the seed and the worker count. The
	// trial loads derive from the profile's loadlimits, and the BE
	// compositions and the 0.12 slacklimit floor are fixed.
	SlackOptions = profiler.SlackOptions
	// Policy decides per-Servpod actions each control period
	// (RunConfig.Policy accepts one, or the PolicyRhythm / PolicyHeracles /
	// PolicyNone / PolicyNamed selectors).
	Policy = controller.Policy
	// PolicyInput is one Servpod's full measured state at a control tick,
	// the argument of Policy.Decide: load, slack, seen p99, interference
	// pressure, degraded count, virtual time and whether a reason is
	// wanted (DESIGN.md §15.1).
	PolicyInput = controller.PolicyInput
	// PolicyFactory constructs a fresh policy instance per run for
	// RegisterPolicy; it receives the deployed system's thresholds and
	// SLA.
	PolicyFactory = controller.Factory
	// PolicyFactoryOpts carries the deployment-derived inputs handed to a
	// PolicyFactory.
	PolicyFactoryOpts = controller.FactoryOpts
	// SlacklimitReporter is the capability interface the engine uses to
	// scale CutBE severity; implement it on custom policies to control BE
	// step sizing.
	SlacklimitReporter = controller.SlacklimitReporter
	// Heracles is the §5.1 uniform-threshold baseline controller.
	Heracles = controller.Heracles
	// FaultSchedule is a validated, deterministic fault-injection
	// schedule (RunConfig.Faults / ExperimentOptions.Faults).
	FaultSchedule = faults.Schedule
	// FaultEvent is one typed fault in a schedule.
	FaultEvent = faults.Event
	// FaultKind names a fault type (load surge, interference storm, ...).
	FaultKind = faults.Kind
	// DropoutMode selects what a blinded controller sees during a
	// measurement dropout: NaN or a stale replay.
	DropoutMode = faults.DropoutMode
	// Bus is the observability event bus (decision traces + metrics).
	Bus = obs.Bus
	// Sink consumes observability events (NewJSONLSink, NewChromeSink).
	Sink = obs.Sink
	// ScenarioSpec is a workload-spec scenario file (SCENARIOS.md):
	// service, client classes with arrival processes and per-class SLOs,
	// and the run shape, loaded via LoadScenario.
	ScenarioSpec = workload.Spec
	// ScenarioClient is one client class of a scenario.
	ScenarioClient = workload.ClientSpec
	// ReplayTrace is a recorded-traffic trace (CSV/JSONL) usable as a
	// load pattern via its Pattern method.
	ReplayTrace = replay.Trace
	// Fleet is a datacenter-scale run: N machines of service replicas
	// coordinated through one shared BE queue (ROADMAP item 1).
	Fleet = fleet.Fleet
	// FleetConfig configures a fleet run (composition, load, BE mix,
	// arrival rate, queue bound, duration, seed). Epochs are the fixed
	// 2 s control period and every machine has the default spec.
	FleetConfig = fleet.Config
	// FleetEntry is one service class in a fleet: a service, its replica
	// count, and the policy/SLA controlling each replica.
	FleetEntry = fleet.Entry
	// FleetResult is the fleet-wide scorecard (per-class p99, utilization
	// histograms, BE goodput, queue waits).
	FleetResult = fleet.Result
	// FleetClassStats is one service class's scorecard row.
	FleetClassStats = fleet.ClassStats
	// FleetQueueStats is the shared BE queue's scorecard.
	FleetQueueStats = fleet.QueueStats
	// FleetProfile is a named fleet composition preset (fleet4, fleet100,
	// fleet1000).
	FleetProfile = fleet.Profile
	// MetricSet is a typed collection of metric series parsed from an
	// exported artifact or snapshotted from a live Bus.
	MetricSet = calibration.MetricSet
	// CalibrationRule binds a tolerance to the metric series it governs.
	CalibrationRule = calibration.Rule
	// CalibrationTolerance is a per-metric abs/rel acceptance band.
	CalibrationTolerance = calibration.Tolerance
	// CalibrationReport is the pass/fail scorecard from CompareMetrics.
	CalibrationReport = calibration.Report
	// CalibrationFit is the result of fitting workload-distribution
	// corrections (mu shift, sigma scale, rate scale) to observed tails.
	CalibrationFit = calibration.FitResult
)

// The engine's fixed sampling grid: a run advances in EngineTick steps,
// and RunStats.E2ESamples grows by SamplesPerTick entries per tick from
// t=0.
const (
	EngineTick     = engine.TickDt
	SamplesPerTick = engine.SamplesPerTick
)

// The seven BE job types of Table 1.
const (
	CPUStress     = bejobs.CPUStress
	StreamLLC     = bejobs.StreamLLC
	StreamDRAM    = bejobs.StreamDRAM
	Iperf         = bejobs.Iperf
	Wordcount     = bejobs.Wordcount
	ImageClassify = bejobs.ImageClassify
	LSTM          = bejobs.LSTM
)

// The top-controller action vocabulary (Algorithm 2), most to least
// conservative.
const (
	StopBE           = controller.StopBE
	SuspendBE        = controller.SuspendBE
	CutBE            = controller.CutBE
	DisallowBEGrowth = controller.DisallowBEGrowth
	AllowBEGrowth    = controller.AllowBEGrowth
)

// RunConfig.Policy selectors: the system's own derived policy (also the
// nil default), the Heracles baseline, or no BE jobs at all.
var (
	PolicyRhythm   = core.PolicyRhythm
	PolicyHeracles = core.PolicyHeracles
	PolicyNone     = core.PolicyNone
)

// The fault kinds a FaultSchedule can carry.
const (
	FaultLoadSurge          = faults.LoadSurge
	FaultInterferenceStorm  = faults.InterferenceStorm
	FaultMachineSlowdown    = faults.MachineSlowdown
	FaultBECrash            = faults.BECrash
	FaultProfileDrift       = faults.ProfileDrift
	FaultMeasurementDropout = faults.MeasurementDropout

	// Measurement-dropout flavors: the controller sees NaN, or a stale
	// replay of the last healthy p99.
	DropNaN   = faults.DropNaN
	DropStale = faults.DropStale
)

// NewHeracles returns the uniform-threshold baseline controller with the
// paper's default thresholds (tune via its Uniform field).
func NewHeracles() *Heracles { return controller.NewHeracles() }

// PolicyNamed returns a RunConfig.Policy selector for a registered policy
// name; it resolves through the policy registry at Run time against the
// deployed system's thresholds and SLA. Policies lists the valid names;
// unknown names error at Run.
func PolicyNamed(name string) Policy { return core.PolicyNamed(name) }

// Policies lists every registered policy name, sorted: the built-in zoo
// (rhythm, heracles, none, predictive, scoring, rack-central) plus
// anything added via RegisterPolicy.
func Policies() []string { return controller.Names() }

// RegisterPolicy adds a custom policy to the registry under name, making
// it resolvable by PolicyNamed, the `-policy` CLI flag, the scenario
// spec's `policy` field and the tournament experiment. The factory is
// invoked once per run, so stateful policies never share history across
// runs. Registering a duplicate or empty name panics.
func RegisterPolicy(name string, factory PolicyFactory) { controller.Register(name, factory) }

// FaultPresets lists the canned fault-storm names accepted by
// FaultPreset and the CLI's -faults flag.
func FaultPresets() []string { return faults.Presets() }

// FaultPreset builds a canned storm whose event timing derives from its
// own substream of seed, placed across span (<= 0 uses the default
// span). The same (name, seed, span) always yields the same schedule.
func FaultPreset(name string, seed uint64, span time.Duration) (*FaultSchedule, error) {
	return faults.Preset(name, seed, span)
}

// LoadFaultSchedule reads and validates a JSON fault-schedule file (the
// format the CLI's -faults flag accepts).
func LoadFaultSchedule(path string) (*FaultSchedule, error) { return faults.Load(path) }

// NewBus returns an observability bus fanning out to the given sinks.
func NewBus(sinks ...Sink) *Bus { return obs.NewBus(sinks...) }

// NewJSONLSink writes one JSON object per event.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// NewChromeSink writes Chrome trace_event JSON for chrome://tracing and
// ui.perfetto.dev.
func NewChromeSink(w io.Writer) Sink { return obs.NewChromeSink(w) }

// InstallBus makes bus the process-wide observability bus; every engine
// tick, controller decision and fault event flows to its sinks until
// UninstallBus. Tracing never changes run results.
func InstallBus(bus *Bus) { obs.Install(bus) }

// UninstallBus detaches the process-wide bus (runs stop emitting).
func UninstallBus() { obs.Uninstall() }

// ActiveBus returns the installed bus, or nil.
func ActiveBus() *Bus { return obs.Active() }

// Services returns the six Table 1 LC workloads.
func Services() []*ServiceSpec { return workload.Services() }

// Service returns the named Table 1 workload (E-commerce, Redis, Solr,
// Elasticsearch, Elgg or SNMS).
func Service(name string) (*ServiceSpec, error) { return workload.ByName(name) }

// Deploy runs Rhythm's offline phase on a service and returns the system
// ready for co-location runs.
func Deploy(svc *ServiceSpec, opts Options) (*System, error) { return core.Deploy(svc, opts) }

// ConstantLoad returns a fixed-fraction load pattern.
func ConstantLoad(frac float64) LoadPattern { return loadgen.Constant(frac) }

// DiurnalLoad returns the production-trace stand-in: a day/night wave
// between min and max with deterministic bursts.
func DiurnalLoad(period time.Duration, min, max, burst float64, seed uint64) (LoadPattern, error) {
	return loadgen.NewDiurnal(period, min, max, burst, seed)
}

// LoadScenario reads and validates a workload-spec file (.json or
// .yaml/.yml; SCENARIOS.md documents the format). The spec materializes
// into runnable pieces via BuildService, LoadPattern, BETypes, Duration
// and Warmup; relative trace paths resolve against the spec file's
// directory.
func LoadScenario(path string) (*ScenarioSpec, error) { return workload.LoadSpec(path) }

// ParseScenario decodes and validates a JSON workload spec from memory.
func ParseScenario(data []byte) (*ScenarioSpec, error) { return workload.ParseSpec(data) }

// OpenTrace reads a recorded-traffic trace file (.csv, .jsonl or
// .ndjson; see SCENARIOS.md for the line formats). Trace.Pattern turns
// it into a LoadPattern.
func OpenTrace(path string) (*ReplayTrace, error) { return replay.Open(path) }

// Improvement returns (rhythm-heracles)/heracles, the paper's relative
// improvement metric.
func Improvement(rhythm, heracles float64) float64 { return core.Improvement(rhythm, heracles) }

// Experiments lists the registered paper-reproduction experiment IDs.
func Experiments() []string { return experiments.IDs() }

// ScenarioExperiments lists the on-demand scenario experiment IDs (for
// example "resilience") that run by ID but are excluded from `run all`.
func ScenarioExperiments() []string { return experiments.ScenarioIDs() }

// NewExperiments returns a context for running paper experiments.
func NewExperiments(opts ExperimentOptions) *ExperimentContext {
	return experiments.NewContext(opts)
}

// NewFleet builds a fleet from its configuration; Run executes it and
// returns the aggregated scorecard. Output is byte-identical for any
// Config.Jobs value.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// FleetPresets lists the fleet-size preset names (fleet4, fleet100,
// fleet1000) accepted by FleetPresetProfile and the CLI's -fleet flag.
func FleetPresets() []string { return fleet.Presets() }

// FleetPresetProfile returns the named preset's composition.
func FleetPresetProfile(name string) (FleetProfile, error) { return fleet.PresetProfile(name) }

// ImportMetrics parses an exported artifact — a Prometheus text-format
// snapshot (-metrics-out) or a JSONL decision trace (-trace-out) — into a
// MetricSet, dispatching on the file extension.
func ImportMetrics(path string) (*MetricSet, error) { return calibration.ImportFile(path) }

// ImportPrometheusMetrics parses Prometheus text exposition format.
func ImportPrometheusMetrics(r io.Reader) (*MetricSet, error) {
	return calibration.ImportPrometheus(r)
}

// ImportTraceMetrics reconstructs engine metrics from a JSONL trace.
func ImportTraceMetrics(r io.Reader) (*MetricSet, error) { return calibration.ImportJSONL(r) }

// SnapshotMetrics captures a bus's instruments as a MetricSet, keyed
// exactly as the Prometheus sink writes them.
func SnapshotMetrics(bus *Bus) *MetricSet { return calibration.Snapshot(bus) }

// CompareMetrics validates predicted series against observed ones under
// per-metric tolerance rules; the report lists breaches worst-first.
func CompareMetrics(predicted, observed *MetricSet, rules []CalibrationRule) *CalibrationReport {
	return calibration.Compare(predicted, observed, rules)
}

// DefaultCalibrationRules are the tolerances under which a run must
// reproduce its own export (the self-calibration fixed point).
func DefaultCalibrationRules() []CalibrationRule { return calibration.DefaultRules() }

// FitCalibration estimates workload-distribution corrections (service-time
// mu shift and sigma scale, arrival-rate scale) that bring the predicted
// tail onto the observed one.
func FitCalibration(predicted, observed *MetricSet) (*CalibrationFit, error) {
	return calibration.FitReport(predicted, observed)
}
