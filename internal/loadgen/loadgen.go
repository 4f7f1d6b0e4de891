// Package loadgen produces the request-load patterns of the evaluation:
// constant fractions of the maximum load (Fig. 9-14), sweep profiles for
// offline profiling (§3.2), a diurnal production trace standing in for
// the ClarkNet web trace of §5.3 (same 24-hour periodicity and burst
// structure, scaled to the experiment window), and the arrival processes
// of the workload-spec scenario layer (PoissonBins, MMPP2, MultiDiurnal,
// composed per client class with Mix; see arrival.go and SCENARIOS.md).
//
// # Determinism and thread safety
//
// Every pattern draws randomness only at construction time or from
// counter-keyed sim.SubSeed substreams recomputed per query; Load never
// mutates state. All patterns are therefore safe for concurrent readers
// and byte-identical across -jobs counts and repeat runs at a fixed
// seed — the repo-wide determinism contract (DESIGN.md "Concurrency &
// determinism").
package loadgen

import (
	"fmt"
	"math"
	"time"

	"rhythm/internal/sim"
)

// Pattern yields the offered load as a fraction of the service's maximum
// allowable load at a given virtual time. Values may slightly exceed 1
// during bursts, as production traces do.
type Pattern interface {
	// Load returns the load fraction at time t.
	Load(t sim.Time) float64
}

// Constant is a fixed load fraction.
type Constant float64

// Load returns the constant fraction.
func (c Constant) Load(sim.Time) float64 { return float64(c) }

// Step holds each level of a profiling sweep for a fixed dwell time, then
// stays at the last level.
type Step struct {
	Levels []float64
	Dwell  time.Duration
}

// Load returns the sweep level active at time t.
func (s Step) Load(t sim.Time) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	if s.Dwell <= 0 {
		return s.Levels[len(s.Levels)-1]
	}
	i := int(time.Duration(t) / s.Dwell)
	if i >= len(s.Levels) {
		i = len(s.Levels) - 1
	}
	return s.Levels[i]
}

// Diurnal is the ClarkNet stand-in: a periodic day/night wave between Min
// and Max with deterministic burst noise. The paper scales five days of
// ClarkNet to six hours; tests scale further, so the period is a parameter.
type Diurnal struct {
	Period time.Duration // one "day"
	Min    float64       // overnight trough load fraction
	Max    float64       // midday peak load fraction
	Burst  float64       // burst amplitude as a fraction of (Max-Min)
	noise  []float64     // precomputed smooth noise, one value per noiseStep
}

const diurnalNoiseSteps = 512

// NewDiurnal returns a diurnal pattern with deterministic noise from seed.
func NewDiurnal(period time.Duration, min, max, burst float64, seed uint64) (*Diurnal, error) {
	if period <= 0 {
		return nil, fmt.Errorf("loadgen: period must be positive, got %v", period)
	}
	if min < 0 || max <= min {
		return nil, fmt.Errorf("loadgen: need 0 <= min < max, got [%v, %v]", min, max)
	}
	return &Diurnal{Period: period, Min: min, Max: max, Burst: burst, noise: burstNoise(seed)}, nil
}

// burstNoise is the diurnal patterns' smooth bounded burst noise from
// seed: diurnalNoiseSteps values of an AR(1) walk pulled back to zero.
func burstNoise(seed uint64) []float64 {
	r := sim.NewRNG(seed)
	noise := make([]float64, diurnalNoiseSteps)
	v := 0.0
	for i := range noise {
		v = 0.85*v + 0.3*(r.Float64()*2-1)
		noise[i] = sim.Clamp(v, -1, 1)
	}
	return noise
}

// Load returns the diurnal load at time t.
func (d *Diurnal) Load(t sim.Time) float64 {
	phase := math.Mod(t.Seconds(), d.Period.Seconds()) / d.Period.Seconds()
	// Day shape: trough at phase 0, peak at phase 0.5.
	wave := 0.5 - 0.5*math.Cos(2*math.Pi*phase)
	base := d.Min + (d.Max-d.Min)*wave
	// Deterministic burst noise keyed by absolute time so that replays
	// at the same timestamps see the same bursts.
	idx := int(math.Mod(t.Seconds()/d.Period.Seconds()*diurnalNoiseSteps,
		diurnalNoiseSteps))
	if idx < 0 {
		idx += diurnalNoiseSteps
	}
	load := base + d.Burst*(d.Max-d.Min)*d.noise[idx]
	if load < 0 {
		load = 0
	}
	return load
}

// Replay plays back recorded load samples at fixed spacing, clamping to the
// final sample afterward.
type Replay struct {
	Samples []float64
	Spacing time.Duration
}

// Load returns the linearly interpolated sample at time t.
func (r Replay) Load(t sim.Time) float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	if r.Spacing <= 0 {
		return r.Samples[len(r.Samples)-1]
	}
	pos := t.Seconds() / r.Spacing.Seconds()
	i := int(pos)
	if i >= len(r.Samples)-1 {
		return r.Samples[len(r.Samples)-1]
	}
	if i < 0 {
		return r.Samples[0]
	}
	frac := pos - float64(i)
	return r.Samples[i]*(1-frac) + r.Samples[i+1]*frac
}

// FineSweepLevels returns the fine-grained profiling sweep of Fig. 6/8
// (1% to 97% in 4-point steps), dense enough to locate the CoV knee that
// defines loadlimit.
func FineSweepLevels() []float64 {
	var out []float64
	for f := 0.01; f <= 0.97; f += 0.04 {
		out = append(out, math.Round(f*100)/100)
	}
	return out
}
