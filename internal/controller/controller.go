// Package controller implements the decision side of §3.5: the top
// controller's five actions (Algorithm 2) computed from the real-time
// request load and latency slack against the per-Servpod thresholds, plus
// the Heracles baseline of §5.1 which applies one uniform threshold pair
// to every machine.
//
// The actuation side (the four subcontrollers adjusting cores, LLC ways,
// frequency, memory and network bandwidth) lives in internal/isolation and
// is driven by internal/engine in response to these decisions.
package controller

import (
	"fmt"
	"math"
	"sort"
)

// Action is a top-controller decision (§3.5.2).
type Action int

// The five actions of the top controller. StopBE kills all BE jobs and
// releases their resources; SuspendBE pauses them but keeps their memory;
// CutBE shrinks their allocations; DisallowBEGrowth freezes them;
// AllowBEGrowth admits more BE jobs and resources.
const (
	StopBE Action = iota
	SuspendBE
	CutBE
	DisallowBEGrowth
	AllowBEGrowth
)

// String names the action as the paper does.
func (a Action) String() string {
	switch a {
	case StopBE:
		return "StopBE"
	case SuspendBE:
		return "SuspendBE"
	case CutBE:
		return "CutBE"
	case DisallowBEGrowth:
		return "DisallowBEGrowth"
	case AllowBEGrowth:
		return "AllowBEGrowth"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Thresholds is one Servpod's control pair (§3.5.1).
type Thresholds struct {
	// Loadlimit is the load fraction above which no BE jobs may run.
	Loadlimit float64
	// Slacklimit is the minimum latency slack that permits BE growth.
	Slacklimit float64
}

// Policy decides the action for one machine from its Servpod's measured
// state. It is the only decision interface: the engine calls Decide
// exactly once per pod per control period, so stateful policies
// (forecast histories, score rankings) observe each input exactly once.
// Implementations must be deterministic — same input sequence, same
// decisions — and a stateful one must be constructed fresh per run (the
// registry does) rather than shared across concurrent engines.
type Policy interface {
	// Decide returns the action for the pod described by in. When
	// in.Explain is set it also returns a human-readable reason naming
	// the branch taken and the thresholds it compared against; otherwise
	// the reason is "" and no string is built.
	Decide(in PolicyInput) (Action, string)
	// Name identifies the policy in experiment output.
	Name() string
}

// decide implements Algorithm 2 for a threshold pair, rendering the
// branch taken as a reason only when explain is set.
//
// The NaN guard comes first: every float comparison against NaN is false,
// so without it a broken measurement pipeline (measurement-dropout faults,
// internal/faults) would fall through every branch to AllowBEGrowth — the
// most aggressive action, taken exactly when the controller is blind.
// Degraded inputs instead freeze BE growth; the engine escalates further
// via Degraded when blindness persists.
func decide(t Thresholds, load, slack float64, explain bool) (act Action, reason string) {
	switch {
	case math.IsNaN(slack) || math.IsNaN(load):
		act = DisallowBEGrowth
		if explain {
			reason = "degraded: NaN measurement input; freezing BE growth"
		}
	case slack < 0:
		act = StopBE
		if explain {
			reason = fmt.Sprintf("slack %.3f < 0: SLA violated", slack)
		}
	case load > t.Loadlimit:
		act = SuspendBE
		if explain {
			reason = fmt.Sprintf("load %.2f > loadlimit %.2f", load, t.Loadlimit)
		}
	case slack < t.Slacklimit/2:
		act = CutBE
		if explain {
			reason = fmt.Sprintf("slack %.3f < slacklimit/2 %.3f", slack, t.Slacklimit/2)
		}
	case slack < t.Slacklimit:
		act = DisallowBEGrowth
		if explain {
			reason = fmt.Sprintf("slack %.3f < slacklimit %.3f", slack, t.Slacklimit)
		}
	default:
		act = AllowBEGrowth
		if explain {
			reason = fmt.Sprintf("slack %.3f >= slacklimit %.3f", slack, t.Slacklimit)
		}
	}
	return act, reason
}

// Rhythm is the component-distinguishable policy: per-Servpod thresholds
// derived from contributions.
type Rhythm struct {
	perPod map[string]Thresholds
}

// NewRhythm returns a Rhythm policy over the given per-Servpod thresholds.
func NewRhythm(perPod map[string]Thresholds) (*Rhythm, error) {
	if len(perPod) == 0 {
		return nil, fmt.Errorf("controller: Rhythm needs at least one Servpod threshold")
	}
	for pod, t := range perPod {
		if t.Loadlimit <= 0 || t.Loadlimit > 1.5 {
			return nil, fmt.Errorf("controller: %s loadlimit %v out of (0, 1.5]", pod, t.Loadlimit)
		}
		if t.Slacklimit <= 0 || t.Slacklimit > 1 {
			return nil, fmt.Errorf("controller: %s slacklimit %v out of (0, 1]", pod, t.Slacklimit)
		}
	}
	cp := make(map[string]Thresholds, len(perPod))
	for k, v := range perPod {
		cp[k] = v
	}
	return &Rhythm{perPod: cp}, nil
}

// Decide applies Algorithm 2 with the pod's own thresholds. Unknown pods
// are controlled with the most conservative configured thresholds, so a
// placement mistake degrades to safety rather than SLA risk.
func (r *Rhythm) Decide(in PolicyInput) (Action, string) {
	t, ok := r.perPod[in.Pod]
	if !ok {
		t = r.conservative()
	}
	return decide(t, in.Load, in.Slack, in.Explain)
}

// conservative returns the lowest loadlimit and highest slacklimit among
// the configured pods.
func (r *Rhythm) conservative() Thresholds {
	out := Thresholds{Loadlimit: 1.5, Slacklimit: 0}
	for _, t := range r.perPod {
		if t.Loadlimit < out.Loadlimit {
			out.Loadlimit = t.Loadlimit
		}
		if t.Slacklimit > out.Slacklimit {
			out.Slacklimit = t.Slacklimit
		}
	}
	return out
}

// Name returns "Rhythm".
func (r *Rhythm) Name() string { return "Rhythm" }

// Thresholds returns the pod's configured thresholds and whether they
// exist.
func (r *Rhythm) Thresholds(pod string) (Thresholds, bool) {
	t, ok := r.perPod[pod]
	return t, ok
}

// Pods returns the configured Servpod names, sorted.
func (r *Rhythm) Pods() []string {
	out := make([]string, 0, len(r.perPod))
	for pod := range r.perPod {
		out = append(out, pod)
	}
	sort.Strings(out)
	return out
}

// Heracles is the §5.1 baseline: the same Algorithm 2 loop with one
// uniform threshold pair for every machine — it "does not distinguish
// between Servpods". The paper configures it to disable BE jobs whenever
// the load exceeds 0.85 and to disallow BE growth whenever slack is below
// 0.10.
type Heracles struct {
	Uniform Thresholds
}

// NewHeracles returns the baseline with its published thresholds.
func NewHeracles() *Heracles {
	return &Heracles{Uniform: Thresholds{Loadlimit: 0.85, Slacklimit: 0.10}}
}

// Decide applies Algorithm 2 with the uniform thresholds.
func (h *Heracles) Decide(in PolicyInput) (Action, string) {
	return decide(h.Uniform, in.Load, in.Slack, in.Explain)
}

// Name returns "Heracles".
func (h *Heracles) Name() string { return "Heracles" }

// Disabled is a policy that never admits BE jobs: the solo-run baseline.
type Disabled struct{}

// Decide always suspends, with no reason.
func (Disabled) Decide(PolicyInput) (Action, string) { return SuspendBE, "" }

// Name returns "solo".
func (Disabled) Name() string { return "solo" }

// SlacklimitFor returns the pod's slacklimit (the conservative default for
// unknown pods); the engine uses it to scale CutBE severity.
func (r *Rhythm) SlacklimitFor(pod string) float64 {
	if t, ok := r.perPod[pod]; ok {
		return t.Slacklimit
	}
	return r.conservative().Slacklimit
}

// SlacklimitFor returns the uniform slacklimit.
func (h *Heracles) SlacklimitFor(string) float64 { return h.Uniform.Slacklimit }

// DegradedAfter is the number of consecutive blind control periods the
// degraded-mode escalation tolerates before it moves from freezing BE
// growth to actively cutting allocations.
const DegradedAfter = 2

// Degraded maps the count of consecutive control periods with an
// unusable latency measurement (NaN or known-stale p99) to the
// conservative action for that much blindness: freeze BE growth for the
// first DegradedAfter periods, then start cutting BE allocations until
// measurements return. The mapping is stateless — the engine owns the
// per-pod counter — so shared policy values stay safe for concurrent
// runs. It never returns AllowBEGrowth: a blind controller must not
// expand the interference it cannot measure.
func Degraded(consecutive int) Action {
	if consecutive <= DegradedAfter {
		return DisallowBEGrowth
	}
	return CutBE
}

// DegradedReason renders the reason for a degraded-mode decision, in the
// style of Policy.Decide's; cause names what broke (e.g. "p99 NaN",
// "p99 stale").
func DegradedReason(consecutive int, cause string) string {
	act := Degraded(consecutive)
	return fmt.Sprintf("degraded: %s for %d period(s): %s until measurements return", cause, consecutive, act)
}
