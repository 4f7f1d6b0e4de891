// Package core assembles Rhythm itself: the "profile LC once, feedback
// control BE" pipeline of §3. Deploy profiles a service's Servpods
// (request tracer + contribution analyzer), derives each Servpod's
// loadlimit and slacklimit (§3.5.1, Algorithm 1), and yields a System
// whose per-machine controllers co-locate BE jobs aggressively on
// low-contribution Servpods while protecting the SLA.
package core

import (
	"fmt"
	"strings"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/profiler"
	"rhythm/internal/workload"
)

// Options configures Deploy.
type Options struct {
	// Profile configures the offline sweep; zero values use defaults.
	Profile profiler.Options
	// Slack configures the Algorithm 1 search; zero values use defaults.
	Slack profiler.SlackOptions
	// Seed is used when the sub-options carry none.
	Seed uint64
	// Jobs bounds the worker goroutines of the profiling sweep and the
	// Algorithm 1 trial matrix when the sub-options carry none (0 =
	// runtime.NumCPU()). Deployment results are independent of Jobs.
	Jobs int
}

// System is a deployed Rhythm instance for one LC service: the profiling
// results and the derived control policy.
type System struct {
	Service     *workload.Service
	Profile     *profiler.Profile
	Slacklimits map[string]float64
	Thresholds  map[string]controller.Thresholds
	Policy      *controller.Rhythm
	// SLA is the derived tail-latency target (seconds) the controllers
	// protect — the worst solo p99 at max load, per Table 1's rule.
	SLA float64
}

// Deploy runs Rhythm's offline phase end to end: load-sweep profiling
// (through the request tracer for chain services, the built-in tracer for
// fan-out ones), contribution analysis (Eq. 1-5), the Fig. 8 loadlimit
// rule and the Algorithm 1 slacklimit search.
//
// Deploy is safe to call concurrently for different services, and both the
// profile and the slacklimit search go through the process-wide
// content-keyed caches in internal/profiler: redeploying the same
// (service, options, seed) triple — from any goroutine — reuses the first
// deployment's results. The internal sweeps parallelize across opts.Jobs
// workers; the returned System is identical for every worker count.
func Deploy(svc *workload.Service, opts Options) (*System, error) {
	if svc == nil {
		return nil, fmt.Errorf("core: nil service")
	}
	if opts.Profile.Seed == 0 {
		opts.Profile.Seed = opts.Seed
	}
	if opts.Slack.Seed == 0 {
		opts.Slack.Seed = opts.Seed + 1
	}
	if opts.Profile.Jobs == 0 {
		opts.Profile.Jobs = opts.Jobs
	}
	if opts.Slack.Jobs == 0 {
		opts.Slack.Jobs = opts.Jobs
	}
	prof, err := profiler.CachedRun(svc, opts.Profile)
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", svc.Name, err)
	}
	slack, err := profiler.CachedSlacklimits(profiler.ProfileKey(svc, opts.Profile), prof, opts.Slack)
	if err != nil {
		return nil, fmt.Errorf("core: slacklimit search for %s: %w", svc.Name, err)
	}
	th, err := profiler.Thresholds(prof, slack)
	if err != nil {
		return nil, err
	}
	pol, err := controller.NewRhythm(th)
	if err != nil {
		return nil, err
	}
	return &System{
		Service:     svc,
		Profile:     prof,
		Slacklimits: slack,
		Thresholds:  th,
		Policy:      pol,
		SLA:         prof.SLA,
	}, nil
}

// RunConfig shapes a co-location run of a deployed system.
type RunConfig struct {
	// Pattern offers the LC load (required).
	Pattern loadgen.Pattern
	// BETypes are cycled when admitting BE instances (required unless
	// Policy is PolicyNone).
	BETypes []bejobs.Type
	// Duration is the virtual run time (required).
	Duration time.Duration
	// Warmup discards the initial transient from the statistics.
	Warmup time.Duration
	// Seed drives the run.
	Seed uint64
	// Timeline retains the Fig. 17 series.
	Timeline bool
	// CollectSamples retains per-pod sojourn and end-to-end latency
	// samples in the run stats (per-class SLO accounting, profiling).
	CollectSamples bool
	// Policy selects who controls the run: nil or PolicyRhythm uses the
	// system's own derived per-Servpod policy, PolicyNone no BE jobs at
	// all (solo reference), and any other PolicyNamed selector (including
	// PolicyHeracles) constructs a fresh instance from the controller
	// registry with this system's thresholds and SLA. Any other
	// controller.Policy is used as given (threshold sweeps, ablations).
	Policy controller.Policy
	// Faults injects a deterministic fault schedule (internal/faults);
	// nil leaves the run fault-free and bit-frozen.
	Faults *faults.Schedule
}

// builtinPolicy marks the RunConfig.Policy name selectors (PolicyNamed).
// Its Decide is never consulted: Run resolves selectors through the
// controller registry before the engine sees them (the most conservative
// action is returned just in case one is passed to an engine directly).
type builtinPolicy string

// Decide always suspends; selectors never reach an engine through Run.
func (builtinPolicy) Decide(controller.PolicyInput) (controller.Action, string) {
	return controller.SuspendBE, ""
}

// Name identifies the selector.
func (b builtinPolicy) Name() string { return string(b) }

// policyPrefix distinguishes a selector's string from a registry name; it
// predates the registry (the original sentinels were "policy-rhythm" etc.)
// and is kept so selector values remain stable across versions.
const policyPrefix = "policy-"

// PolicyNamed returns a RunConfig.Policy selector for a registered policy
// name (controller.Names() lists them). The name resolves at Run time:
// "rhythm" to the system's own derived per-Servpod policy, "none" to a
// solo run with no BE jobs, and everything else through
// controller.New(name, ...) with the system's thresholds and SLA — a
// fresh instance per run, so stateful policies never share history.
// Unknown names error at Run with the registered list.
func PolicyNamed(name string) controller.Policy {
	return builtinPolicy(policyPrefix + name)
}

// The canonical RunConfig.Policy selectors. PolicyRhythm (or nil) runs
// the system's derived per-Servpod policy, PolicyHeracles the uniform
// baseline, PolicyNone the LC service alone with no BE jobs.
var (
	PolicyRhythm   = PolicyNamed("rhythm")
	PolicyHeracles = PolicyNamed("heracles")
	PolicyNone     = PolicyNamed("none")
)

// Run executes one co-location run of the deployed system, fully described
// by cfg: which policy controls it (RunConfig.Policy), which BE jobs ride
// along, what load pattern is offered, and which faults (if any) are
// injected. It is the single entry point the experiments, examples and
// facade build on.
func (s *System) Run(cfg RunConfig) (*engine.RunStats, error) {
	pol := cfg.Policy
	betypes := cfg.BETypes
	if cfg.Policy == nil {
		pol = s.Policy
	} else if b, ok := cfg.Policy.(builtinPolicy); ok {
		switch name := strings.TrimPrefix(string(b), policyPrefix); name {
		case "rhythm":
			// The system's own calibrated instance, not a registry
			// reconstruction: byte-for-byte the pre-registry behavior.
			pol = s.Policy
		case "none":
			pol, betypes = nil, nil
		default:
			p, err := controller.New(name, controller.FactoryOpts{
				Thresholds: s.Thresholds,
				SLA:        s.SLA,
			})
			if err != nil {
				return nil, err
			}
			pol = p
		}
	}
	e, err := engine.New(engine.Config{
		Service:        s.Service,
		Pattern:        cfg.Pattern,
		SLA:            s.SLA,
		Policy:         pol,
		BETypes:        betypes,
		Seed:           cfg.Seed,
		Warmup:         cfg.Warmup,
		Timeline:       cfg.Timeline,
		CollectSamples: cfg.CollectSamples,
		Faults:         cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	return e.Run(cfg.Duration)
}

// Comparison holds a Rhythm-vs-Heracles pair over the same scenario.
type Comparison struct {
	Rhythm   *engine.RunStats
	Heracles *engine.RunStats
}

// Compare runs the same scenario under both policies.
func (s *System) Compare(cfg RunConfig) (*Comparison, error) {
	cfg.Policy = PolicyRhythm
	r, err := s.Run(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Policy = PolicyHeracles
	h, err := s.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &Comparison{Rhythm: r, Heracles: h}, nil
}

// Improvement returns (rhythm-heracles)/heracles for a metric pair,
// or 0 when the baseline is zero (both idle) — matching how the paper
// reports relative improvements.
func Improvement(rhythm, heracles float64) float64 {
	if heracles == 0 {
		if rhythm == 0 {
			return 0
		}
		return 1 // improvement over a zero baseline: report +100%
	}
	return (rhythm - heracles) / heracles
}
