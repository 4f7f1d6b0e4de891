// RackCentral is the centralized-queue baseline inspired by RackSched
// (arXiv 2010.05969): one rack-level scheduler makes one decision per
// control period from rack-aggregate state and applies it to every
// machine uniformly. It is the anti-Rhythm — deliberately component-
// blind — and exists so the tournament can quantify what per-Servpod
// distinction buys over a centralized rack policy, not just over
// per-machine Heracles.

package controller

import (
	"fmt"

	"rhythm/internal/sim"
)

// rackPressureGain converts excess rack pressure (max smoothed inflation
// above the interference-free 1.0) into a slack penalty: a rack whose
// loudest machine runs 10% inflated behaves as if the whole rack had 5
// points less slack.
const rackPressureGain = 0.5

// RackCentral applies one uniform threshold pair rack-wide, deciding
// once per control period from the rack's aggregate view: the measured
// load/slack, with slack discounted by the previous period's worst
// interference pressure anywhere in the rack. Every pod in a period gets
// the same action — the rack moves together. Deterministic and stateful
// (one period of rack-max pressure); construct a fresh instance per run.
type RackCentral struct {
	// Uniform is the rack-wide threshold pair (the published Heracles
	// numbers by default).
	Uniform Thresholds

	lastNow sim.Time
	started bool
	act     Action
	reason  string
	curMax  float64
	prevMax float64
}

// NewRackCentral returns the rack-level baseline with the published
// uniform thresholds.
func NewRackCentral() *RackCentral {
	return &RackCentral{Uniform: NewHeracles().Uniform}
}

// Decide returns the period's rack-wide action. The first pod of each
// control period (a new in.Now) recomputes it from the rack view; every
// later pod in the period gets the same action and only feeds the
// running rack-max pressure for the next period. The reason notes the
// pressure discount when one applied.
func (r *RackCentral) Decide(in PolicyInput) (Action, string) {
	if !r.started || in.Now != r.lastNow {
		r.started = true
		r.lastNow = in.Now
		r.prevMax = r.curMax
		r.curMax = 0
		slack := in.Slack
		if r.prevMax > 1 {
			slack -= rackPressureGain * (r.prevMax - 1)
		}
		r.act, r.reason = decide(r.Uniform, in.Load, slack, in.Explain)
	}
	if in.Pressure > r.curMax {
		r.curMax = in.Pressure
	}
	if !in.Explain {
		return r.act, ""
	}
	if r.prevMax > 1 {
		return r.act, fmt.Sprintf("rack-wide: %s (rack max pressure %.3f discounted slack)", r.reason, r.prevMax)
	}
	return r.act, "rack-wide: " + r.reason
}

// Name returns "RackCentral".
func (r *RackCentral) Name() string { return "RackCentral" }

// SlacklimitFor reports the uniform slacklimit for CutBE step sizing.
func (r *RackCentral) SlacklimitFor(string) float64 { return r.Uniform.Slacklimit }
