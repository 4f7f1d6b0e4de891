// PolicyInput, the full context Policy.Decide receives, and
// SlacklimitReporter, the only optional capability a policy exposes.
// See DESIGN.md §15.

package controller

import "rhythm/internal/sim"

// PolicyInput is one Servpod's measured state at a control tick — the
// full context the engine can offer a policy. Algorithm 2 reads only
// (Pod, Load, Slack); predictive and interference-scoring policies need
// the rest.
//
// All fields are as the controller *sees* them: under measurement-dropout
// faults P99 and Slack may be NaN while the ground truth stays finite.
// Policies must handle NaN inputs (the Algorithm 2 guard freezes BE
// growth); the engine escalates persistent blindness itself via Degraded,
// so Decide is only called when a usable measurement exists —
// Degraded reports how many consecutive blind periods *preceded* it.
type PolicyInput struct {
	// Pod names the Servpod being decided.
	Pod string
	// Load is the current service load fraction (1.0 = profiled capacity).
	Load float64
	// Slack is the latency slack (SLA - seen p99)/SLA after the engine's
	// safety guard; negative means the SLA is violated.
	Slack float64
	// P99 is the seen sliding-window tail latency in seconds (NaN under a
	// measurement-dropout fault).
	P99 float64
	// Pressure is the pod machine's smoothed interference inflation
	// (>= 1.0; 1.0 = no BE pressure). It is the engine's per-machine
	// estimate of how much co-located BE work is inflating sojourn times.
	Pressure float64
	// Degraded counts the consecutive preceding control periods this pod
	// was decided in degraded (blind-controller) mode; 0 in a healthy run.
	Degraded int
	// Now is the virtual time of the control tick. Every pod decided in
	// one control period shares it, so policies that act per period
	// (rack-central, scoring) detect a new period by a change in Now.
	Now sim.Time
	// Explain asks Decide for a reason alongside the action. The engine
	// sets it only when the observability bus is enabled, so untraced
	// runs build no strings.
	Explain bool
}

// SlacklimitReporter is the capability interface behind CutBE step
// sizing: the engine scales how hard a CutBE squeezes by how far slack
// has fallen below the pod's slacklimit, and asks the policy for that
// limit here. Policies that don't implement it (or return <= 0) get the
// engine's conservative default. Rhythm, Heracles and every registry
// policy implement it, so third-party policies get correct step sizing
// without the engine knowing their concrete type.
type SlacklimitReporter interface {
	// SlacklimitFor returns the pod's slacklimit, or <= 0 when unknown.
	SlacklimitFor(pod string) float64
}
