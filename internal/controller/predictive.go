// Predictive is the PCS-style policy (arXiv 1511.02960): instead of
// reacting to the load a control tick measures, it fits a linear trend
// to each Servpod's recent load history and controls against the
// forecast. A load wave that will crest above the loadlimit two control
// periods from now suspends BE work *before* it arrives; a receding wave
// releases the brakes no later than Algorithm 2 would.

package controller

import (
	"fmt"
	"math"
)

// Predictive forecasts per-Servpod load with a least-squares linear
// trend over a sliding window and applies Algorithm 2 to the *worse* of
// the measured and forecast state. Deterministic and stateful: it keeps
// a per-pod load history, so construct a fresh instance per run (the
// registry does) and never share one across concurrent engines.
type Predictive struct {
	perPod  map[string]Thresholds
	uniform Thresholds
	// window is how many observations the trend is fit over; lookahead is
	// the forecast distance in control periods.
	window    int
	lookahead float64
	hist      map[string][]float64
}

// NewPredictive returns the forecasting policy over the deployment's
// per-Servpod thresholds; a nil map falls back to the uniform Heracles
// pair for every pod. The defaults — an 8-observation window, a
// 2-period lookahead — match one engine control period per observation:
// the forecast reaches as far ahead as the actuation pipeline takes to
// bite.
func NewPredictive(perPod map[string]Thresholds) *Predictive {
	cp := make(map[string]Thresholds, len(perPod))
	for k, v := range perPod {
		cp[k] = v
	}
	return &Predictive{
		perPod:    cp,
		uniform:   NewHeracles().Uniform,
		window:    8,
		lookahead: 2,
		hist:      map[string][]float64{},
	}
}

func (p *Predictive) thresholds(pod string) Thresholds {
	if t, ok := p.perPod[pod]; ok {
		return t
	}
	return p.uniform
}

// forecast extrapolates the least-squares trend of h by ahead steps past
// the last observation. Short histories forecast flat.
func forecast(h []float64, ahead float64) float64 {
	n := len(h)
	if n == 0 {
		return 0
	}
	last := h[n-1]
	if n < 2 {
		return last
	}
	// Least-squares slope over x = 0..n-1: with xbar = (n-1)/2,
	// slope = sum((x-xbar)*(y-ybar)) / sum((x-xbar)^2).
	xbar := float64(n-1) / 2
	var ybar float64
	for _, y := range h {
		ybar += y
	}
	ybar /= float64(n)
	var num, den float64
	for i, y := range h {
		dx := float64(i) - xbar
		num += dx * (y - ybar)
		den += dx * dx
	}
	return last + num/den*ahead
}

// observe records a load measurement and returns the forecast load.
func (p *Predictive) observe(pod string, load float64) float64 {
	h := append(p.hist[pod], load)
	if len(h) > p.window {
		h = h[len(h)-p.window:]
	}
	p.hist[pod] = h
	return forecast(h, p.lookahead)
}

// project maps a measured (load, slack) pair to the state Algorithm 2
// should control against: the max of measured and forecast load, and the
// slack discounted by the forecast rise — an approaching wave consumes
// slack before it arrives, at roughly the rate load consumes it (slack
// and load are both normalized to capacity).
func (p *Predictive) project(pod string, load, slack float64) (float64, float64) {
	pred := p.observe(pod, load)
	ctlLoad := math.Max(load, pred)
	if rise := pred - load; rise > 0 {
		slack -= rise
	}
	return ctlLoad, slack
}

// Decide forecasts from the measured load, then applies Algorithm 2 to
// the projected state; the reason is prefixed by the forecast that drove
// it. NaN measurements never enter the history: a blind period would
// otherwise poison the trend for a full window after measurements
// return.
func (p *Predictive) Decide(in PolicyInput) (Action, string) {
	if math.IsNaN(in.Load) || math.IsNaN(in.Slack) {
		return decide(p.thresholds(in.Pod), in.Load, in.Slack, in.Explain)
	}
	load, slack := p.project(in.Pod, in.Load, in.Slack)
	act, reason := decide(p.thresholds(in.Pod), load, slack, in.Explain)
	if in.Explain {
		reason = fmt.Sprintf("forecast load %.2f (measured %.2f): %s", load, in.Load, reason)
	}
	return act, reason
}

// Name returns "Predictive".
func (p *Predictive) Name() string { return "Predictive" }

// SlacklimitFor reports the pod's slacklimit for CutBE step sizing.
func (p *Predictive) SlacklimitFor(pod string) float64 {
	return p.thresholds(pod).Slacklimit
}
