package controller

import (
	"math"
	"testing"

	"rhythm/internal/sim"
)

var zooThresholds = map[string]Thresholds{
	"frontend": {Loadlimit: 0.85, Slacklimit: 0.10},
}

// inputGrid covers every Algorithm 2 branch plus the NaN guard, across
// known and unknown pods.
func inputGrid() []PolicyInput {
	loads := []float64{0, 0.4, 0.86, 1.2, math.NaN()}
	slacks := []float64{-0.2, 0, 0.03, 0.07, 0.15, 1, math.NaN()}
	var grid []PolicyInput
	for _, pod := range []string{"frontend", "unknown-pod"} {
		for _, load := range loads {
			for _, slack := range slacks {
				grid = append(grid, PolicyInput{
					Pod: pod, Load: load, Slack: slack,
					P99: 0.2, Pressure: 1.3, Degraded: 1, Now: 42,
				})
			}
		}
	}
	return grid
}

// TestPredictiveAnticipatesRisingLoad: a load ramp still under the
// loadlimit must suspend BE work under the forecasting policy while the
// reactive Algorithm 2 would still be allowing growth — the whole point
// of the PCS-style contender.
func TestPredictiveAnticipatesRisingLoad(t *testing.T) {
	p := NewPredictive(zooThresholds)
	ramp := []float64{0.50, 0.58, 0.66, 0.74, 0.80}
	var act Action
	for i, load := range ramp {
		act, _ = p.Decide(PolicyInput{Pod: "frontend", Load: load, Slack: 0.5, Now: sim.Time(i)})
	}
	last := ramp[len(ramp)-1]
	if reactive, _ := decide(zooThresholds["frontend"], last, 0.5, false); reactive != AllowBEGrowth {
		t.Fatalf("test premise broken: reactive decide = %v", reactive)
	}
	if act != SuspendBE {
		t.Fatalf("predictive on a ramp to %.2f = %v, want SuspendBE before the wave crests", last, act)
	}
	// A flat history forecasts flat: the same final load with no trend
	// behaves like the reactive policy.
	flat := NewPredictive(zooThresholds)
	for i := 0; i < 5; i++ {
		act, _ = flat.Decide(PolicyInput{Pod: "frontend", Load: last, Slack: 0.5, Now: sim.Time(i)})
	}
	if act != AllowBEGrowth {
		t.Fatalf("predictive on flat %.2f load = %v, want AllowBEGrowth", last, act)
	}
}

// TestPredictiveNaNGuard: blind periods freeze growth and never enter
// the history — the trend must not be poisoned once measurements return.
func TestPredictiveNaNGuard(t *testing.T) {
	p := NewPredictive(zooThresholds)
	for i := 0; i < 4; i++ {
		p.Decide(PolicyInput{Pod: "frontend", Load: 0.5, Slack: 0.5, Now: sim.Time(i)})
	}
	if act, _ := p.Decide(PolicyInput{Pod: "frontend", Load: math.NaN(), Slack: math.NaN(), Now: sim.Time(4)}); act != DisallowBEGrowth {
		t.Fatalf("NaN input = %v, want DisallowBEGrowth", act)
	}
	if act, _ := p.Decide(PolicyInput{Pod: "frontend", Load: 0.5, Slack: 0.5, Now: sim.Time(5)}); act != AllowBEGrowth {
		t.Fatalf("post-blindness steady load = %v, want AllowBEGrowth (history poisoned?)", act)
	}
}

// TestScoringGatesGrowthOnPressure: a machine whose interference score
// is over the absolute cap and above the previous period's median is
// denied BE growth even though Algorithm 2 would allow it; the quiet
// machine keeps its growth.
func TestScoringGatesGrowthOnPressure(t *testing.T) {
	s := NewScoring(zooThresholds)
	calm := PolicyInput{Pod: "frontend", Load: 0.3, Slack: 0.5, Pressure: 1.0, Now: 1}
	loud := PolicyInput{Pod: "cache", Load: 0.3, Slack: 0.5, Pressure: 1.5, Now: 1}
	// Period 1: no previous ranking yet, the cap admits the calm pod and
	// the empty-history fallback admits the loud one.
	if act, _ := s.Decide(calm); act != AllowBEGrowth {
		t.Fatalf("period 1 calm = %v", act)
	}
	if act, _ := s.Decide(loud); act != AllowBEGrowth {
		t.Fatalf("period 1 loud = %v (first period must admit)", act)
	}
	// Period 2: ranking exists (median 1.25). The loud machine is over
	// the cap and over the median: growth vetoed. The calm machine grows.
	calm.Now, loud.Now = 2, 2
	if act, _ := s.Decide(calm); act != AllowBEGrowth {
		t.Fatalf("period 2 calm = %v, want AllowBEGrowth", act)
	}
	if act, _ := s.Decide(loud); act != DisallowBEGrowth {
		t.Fatalf("period 2 loud = %v, want DisallowBEGrowth", act)
	}
	// The veto never touches protective actions: an SLA violation still
	// stops BE outright whatever the score.
	if act, _ := s.Decide(PolicyInput{Pod: "cache", Load: 0.3, Slack: -0.1, Pressure: 9, Now: 3}); act != StopBE {
		t.Fatalf("violated SLA = %v, want StopBE", act)
	}
}

// TestScoringLegacyPathDegradesToAlgorithm2: with no pressure signal
// (Pressure: 0) the policy must behave exactly as per-pod Algorithm 2
// rather than vetoing growth forever.
func TestScoringLegacyPathDegradesToAlgorithm2(t *testing.T) {
	s := NewScoring(zooThresholds)
	for _, in := range inputGrid() {
		in.Pressure = 0
		want, _ := decide(s.thresholds(in.Pod), in.Load, in.Slack, false)
		if got, _ := s.Decide(in); got != want {
			t.Fatalf("Decide(%v, %v) without pressure = %v, want %v", in.Load, in.Slack, got, want)
		}
	}
}

// TestRackCentralMovesTogether: every pod in a control period gets the
// same action regardless of its own inputs (the decision is made once,
// rack-wide), and the previous period's worst pressure discounts the
// rack's slack.
func TestRackCentralMovesTogether(t *testing.T) {
	r := NewRackCentral()
	first, _ := r.Decide(PolicyInput{Pod: "frontend", Load: 0.5, Slack: 0.5, Pressure: 1.4, Now: 1})
	if first != AllowBEGrowth {
		t.Fatalf("period 1 = %v, want AllowBEGrowth", first)
	}
	// Same period, wildly worse per-pod inputs: the rack already decided.
	if act, _ := r.Decide(PolicyInput{Pod: "cache", Load: 1.2, Slack: -1, Pressure: 1.4, Now: 1}); act != first {
		t.Fatalf("rack split within a period: %v vs %v", act, first)
	}
	// Period 2: slack 0.12 clears the 0.10 slacklimit on its own, but the
	// recorded rack-max pressure 1.4 discounts it to 0.12-0.5*0.4 < 0:
	// the pressure-blind baseline would allow growth, the rack view stops.
	if act, _ := r.Decide(PolicyInput{Pod: "frontend", Load: 0.5, Slack: 0.12, Pressure: 1.0, Now: 2}); act != StopBE {
		t.Fatalf("period 2 under recorded pressure = %v, want StopBE", act)
	}
}

// TestZooDeterminism: fresh instances of every registered policy
// replaying the same input sequence must produce identical action
// sequences — the tournament's byte-determinism rests on it — and asking
// for reasons on the replay must not change a single action.
func TestZooDeterminism(t *testing.T) {
	seq := make([]PolicyInput, 0, 64)
	for i := 0; i < 16; i++ {
		for _, pod := range []string{"frontend", "cache"} {
			seq = append(seq, PolicyInput{
				Pod:  pod,
				Load: 0.3 + 0.04*float64(i%9), Slack: 0.4 - 0.05*float64(i%7),
				Pressure: 1 + 0.06*float64(i%5), Now: sim.Time(i),
			})
		}
	}
	for _, name := range Names() {
		a, errA := New(name, FactoryOpts{Thresholds: zooThresholds})
		b, errB := New(name, FactoryOpts{Thresholds: zooThresholds})
		if errA != nil || errB != nil {
			t.Fatalf("New(%q): %v, %v", name, errA, errB)
		}
		for _, in := range seq {
			x, _ := a.Decide(in)
			in.Explain = true
			if y, _ := b.Decide(in); x != y {
				t.Fatalf("%s diverged on replay: %v vs %v at %+v", name, x, y, in)
			}
		}
	}
}
