// Arrival processes for the workload-spec scenario layer (SCENARIOS.md):
// stochastic *intensity* patterns that modulate a client class's offered
// load around a mean of one. A scenario composes them with Mix — each
// class's intensity scaled by its rate share — to form the Pattern an
// engine run consumes.
//
// # Determinism
//
// Every process here draws randomness only at construction time (MMPP2,
// MultiDiurnal precompute their trajectories from the seed they are
// handed) or from counter-keyed substreams recomputed per query
// (PoissonBins derives one substream per time bin via sim.SubSeed, so the
// same bin always yields the same count no matter when, how often, or
// from how many goroutines it is asked). Load never mutates state, which
// makes every pattern in this package safe for concurrent readers and —
// more importantly — byte-identical across -jobs counts and repeat runs
// at a fixed seed. By convention the seed is forked from the scenario
// seed as sim.SubSeed(seed, "scenario/<name>/client/<class>") so adding
// or reordering client classes never perturbs another class's stream.

package loadgen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"rhythm/internal/sim"
)

// poisson draws a Poisson variate with the given mean from r: Knuth's
// product method for small means, the clamped normal approximation for
// large ones (the regime where per-bin counts are in the thousands and
// the relative error of the approximation is far below the simulation's
// own model error).
func poisson(r *sim.RNG, mean float64) float64 {
	if !(mean > 0) {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return float64(k)
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.NormFloat64()
	if v < 0 {
		v = 0
	}
	return math.Round(v)
}

// Poisson draws a Poisson variate with the given mean from r. It is the
// sampler behind PoissonBins, exported for callers that need raw arrival
// counts rather than a normalized intensity (the fleet layer's per-epoch
// BE job arrivals). Determinism follows from r alone: hand it a
// counter-keyed substream (sim.SubSeed) and the same bin always yields
// the same count.
func Poisson(r *sim.RNG, mean float64) float64 { return poisson(r, mean) }

// PoissonBins is the memoryless arrival process: independent Poisson
// counts per fixed time bin, normalized by the expected count so the
// intensity has mean 1. MeanPerBin is the expected number of arrivals in
// one bin (the class request rate times the bin width); smaller values
// give noisier intensity (relative std = 1/sqrt(MeanPerBin)), exactly as
// a low-rate client class should look.
type PoissonBins struct {
	bin  time.Duration
	mean float64
	seed uint64
}

// NewPoissonBins returns a Poisson arrival intensity with the given bin
// width and expected arrivals per bin, seeded by seed.
func NewPoissonBins(bin time.Duration, meanPerBin float64, seed uint64) (*PoissonBins, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("loadgen: poisson bin must be positive, got %v", bin)
	}
	if !(meanPerBin > 0) || math.IsInf(meanPerBin, 0) {
		return nil, fmt.Errorf("loadgen: poisson mean per bin must be positive and finite, got %g", meanPerBin)
	}
	return &PoissonBins{bin: bin, mean: meanPerBin, seed: seed}, nil
}

// Load returns the bin's normalized intensity (count / expected count).
// Each bin owns a counter-keyed RNG substream, so the value is a pure
// function of (seed, bin index): stateless, order-independent and safe
// for concurrent readers.
func (p *PoissonBins) Load(t sim.Time) float64 {
	idx := int64(time.Duration(t) / p.bin)
	if idx < 0 {
		idx = 0
	}
	r := sim.NewRNG(sim.SubSeed(p.seed, "poisson-bin/"+strconv.FormatInt(idx, 10)))
	return poisson(r, p.mean) / p.mean
}

// MMPP2 is a two-state Markov-modulated Poisson process, the standard
// bursty-arrival model: the intensity alternates between a quiet level
// and a burst level, with exponentially distributed holding times in each
// state. The state trajectory is precomputed over a horizon at
// construction and repeats periodically past it, so long runs keep
// bursting instead of freezing in the final state.
type MMPP2 struct {
	quiet, burst float64
	switches     []sim.Time // state-flip times; even index count = quiet
	horizon      sim.Time
}

// NewMMPP2 builds the bursty process: intensity quiet (in state 0) or
// burst (in state 1), mean holding times meanQuiet/meanBurst, trajectory
// drawn once from seed over horizon.
func NewMMPP2(quiet, burst float64, meanQuiet, meanBurst, horizon time.Duration, seed uint64) (*MMPP2, error) {
	if !(quiet >= 0) || !(burst > 0) {
		return nil, fmt.Errorf("loadgen: mmpp levels must be quiet >= 0 and burst > 0, got %g, %g", quiet, burst)
	}
	if burst <= quiet {
		return nil, fmt.Errorf("loadgen: mmpp burst level %g must exceed quiet level %g", burst, quiet)
	}
	if meanQuiet <= 0 || meanBurst <= 0 {
		return nil, fmt.Errorf("loadgen: mmpp mean holding times must be positive, got %v, %v", meanQuiet, meanBurst)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("loadgen: mmpp horizon must be positive, got %v", horizon)
	}
	m := &MMPP2{quiet: quiet, burst: burst, horizon: sim.Time(0).Add(horizon)}
	r := sim.NewRNG(seed)
	at := sim.Time(0)
	inBurst := false
	for at < m.horizon {
		mean := meanQuiet
		if inBurst {
			mean = meanBurst
		}
		at = at.Add(time.Duration(r.ExpFloat64() * float64(mean)))
		if at >= m.horizon {
			break
		}
		m.switches = append(m.switches, at)
		inBurst = !inBurst
	}
	return m, nil
}

// Load returns the state's intensity level at time t (the trajectory
// wraps modulo the horizon). Read-only after construction; safe for
// concurrent readers.
func (m *MMPP2) Load(t sim.Time) float64 {
	if t < 0 {
		t = 0
	}
	if m.horizon > 0 && t >= m.horizon {
		t = sim.Time(math.Mod(float64(t), float64(m.horizon)))
	}
	// Flips before t: even count means the quiet state.
	n := sort.Search(len(m.switches), func(i int) bool { return m.switches[i] > t })
	if n%2 == 0 {
		return m.quiet
	}
	return m.burst
}

// PeriodComponent is one cosine wave of a MultiDiurnal pattern.
type PeriodComponent struct {
	// Period is the wave's cycle length (a day, a week, ...).
	Period time.Duration
	// Weight is the wave's relative contribution to the combined shape
	// (weights are normalized; zero or negative is rejected).
	Weight float64
	// Phase shifts the wave as a fraction of Period in [0, 1): phase 0
	// puts the trough at t=0, matching Diurnal.
	Phase float64
}

// MultiDiurnal generalizes Diurnal to a weighted sum of periodic waves —
// e.g. a daily cycle plus a weekly one plus a lunch-hour ripple — with
// the same deterministic AR(1) burst noise. Intensity swings between Min
// and Max; scenario client classes center it near 1 (say Min 0.5, Max
// 1.5) so the class mean stays at its configured rate share.
type MultiDiurnal struct {
	Components []PeriodComponent
	Min, Max   float64
	Burst      float64
	weightSum  float64
	noisePer   time.Duration // noise index period: the longest component
	noise      []float64
}

// NewMultiDiurnal returns a multi-period pattern with deterministic burst
// noise drawn from seed. At least one component is required.
func NewMultiDiurnal(comps []PeriodComponent, min, max, burst float64, seed uint64) (*MultiDiurnal, error) {
	if len(comps) == 0 {
		return nil, fmt.Errorf("loadgen: multi-diurnal needs at least one period component")
	}
	if min < 0 || max <= min {
		return nil, fmt.Errorf("loadgen: need 0 <= min < max, got [%v, %v]", min, max)
	}
	d := &MultiDiurnal{Components: append([]PeriodComponent(nil), comps...), Min: min, Max: max, Burst: burst}
	for _, c := range d.Components {
		if c.Period <= 0 {
			return nil, fmt.Errorf("loadgen: multi-diurnal period must be positive, got %v", c.Period)
		}
		if c.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: multi-diurnal weight must be positive, got %g", c.Weight)
		}
		if c.Phase < 0 || c.Phase >= 1 {
			return nil, fmt.Errorf("loadgen: multi-diurnal phase must be in [0, 1), got %g", c.Phase)
		}
		d.weightSum += c.Weight
		if c.Period > d.noisePer {
			d.noisePer = c.Period
		}
	}
	d.noise = burstNoise(seed)
	return d, nil
}

// Load returns the combined wave at time t. Read-only after construction;
// safe for concurrent readers.
func (d *MultiDiurnal) Load(t sim.Time) float64 {
	wave := 0.0
	for _, c := range d.Components {
		phase := math.Mod(t.Seconds()/c.Period.Seconds()+c.Phase, 1)
		wave += c.Weight * (0.5 - 0.5*math.Cos(2*math.Pi*phase))
	}
	wave /= d.weightSum
	base := d.Min + (d.Max-d.Min)*wave
	idx := int(math.Mod(t.Seconds()/d.noisePer.Seconds()*diurnalNoiseSteps, diurnalNoiseSteps))
	if idx < 0 {
		idx += diurnalNoiseSteps
	}
	load := base + d.Burst*(d.Max-d.Min)*d.noise[idx]
	if load < 0 {
		load = 0
	}
	return load
}

// Weighted pairs a pattern with its multiplicative weight in a Mix.
type Weighted struct {
	Weight  float64
	Pattern Pattern
}

// Mix sums weighted patterns: the scenario layer's composition of client
// classes, each term weight = baseline load x the class's rate fraction
// and each term pattern the class's arrival intensity. Mix holds no
// state, so it is as concurrency-safe as its terms (every pattern in
// this package is).
type Mix []Weighted

// Load returns the weighted sum of the term intensities at t, clamped at
// zero.
func (m Mix) Load(t sim.Time) float64 {
	s := 0.0
	for _, w := range m {
		s += w.Weight * w.Pattern.Load(t)
	}
	if s < 0 {
		s = 0
	}
	return s
}
