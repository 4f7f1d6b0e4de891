// Package queueing provides the analytic station model that underlies every
// simulated LC component: an M/M/c queue (Erlang-C waiting) whose service
// tail is lognormal. It converts an offered load and an interference
// inflation factor into a sojourn-time distribution with load-dependent
// mean, variance and p99 — the same qualitative shape as Fig. 6 of the
// paper (slow growth, then a knee near saturation).
//
// The model deliberately separates:
//   - queueing delay, which grows with utilization (Erlang-C), and
//   - service time, whose mean is inflated multiplicatively by interference
//     and whose variability (CV) grows with both load and interference.
package queueing

import (
	"fmt"

	"rhythm/internal/sim"
)

// Station models one service component deployed with c parallel workers.
type Station struct {
	// BaseService is the uncontended mean service time per request in
	// seconds at the nominal frequency.
	BaseService float64
	// BaseCV is the uncontended service-time coefficient of variation.
	BaseCV float64
	// Workers is the number of parallel servers (threads pinned to cores).
	Workers int
	// LoadCVGrowth scales how much the sojourn CV grows as utilization
	// approaches 1; components with bursty behaviour (MySQL in the paper)
	// use larger values than steady ones (Amoeba).
	LoadCVGrowth float64
	// ServiceLoadFactor inflates the mean service time itself as load
	// rises (lock and buffer-pool contention in database-like
	// components): service *= 1 + factor*rho^2. Zero for components
	// whose per-request work is load-independent.
	ServiceLoadFactor float64
}

// Validate reports a descriptive error when the station parameters are
// unusable.
func (s Station) Validate() error {
	if s.BaseService <= 0 {
		return fmt.Errorf("queueing: base service must be positive, got %g", s.BaseService)
	}
	if s.BaseCV < 0 {
		return fmt.Errorf("queueing: base CV must be non-negative, got %g", s.BaseCV)
	}
	if s.Workers <= 0 {
		return fmt.Errorf("queueing: workers must be positive, got %d", s.Workers)
	}
	return nil
}

// Sojourn is the analytic sojourn-time distribution of a station at a given
// operating point.
type Sojourn struct {
	MeanWait    float64 // mean queueing delay, seconds
	MeanService float64 // mean (inflated) service time, seconds
	CV          float64 // coefficient of variation of the total sojourn
	Utilization float64 // rho = lambda / (c * mu')
	dist        sim.Lognormal
}

// Mean returns the mean sojourn time (wait + service).
func (s Sojourn) Mean() float64 { return s.MeanWait + s.MeanService }

// P99 returns the analytic 99th percentile of the sojourn distribution.
func (s Sojourn) P99() float64 { return s.dist.Quantile(0.99) }

// Quantile returns the q-quantile of the sojourn distribution.
func (s Sojourn) Quantile(q float64) float64 { return s.dist.Quantile(q) }

// Sample draws one sojourn time.
func (s Sojourn) Sample(r *sim.RNG) float64 { return s.dist.Sample(r) }

// LogParams exposes the log-space lognormal parameters so hot paths can
// inline exp(mu + sigma*normal) — bit-identical to Sample — without the
// struct copy and method dispatch.
func (s Sojourn) LogParams() (mu, sigma float64) { return s.dist.LogParams() }

// maxUtilization caps the modeled utilization so that the system stays
// (barely) stable even when callers push the offered load to or beyond the
// nominal maximum: real servers shed latency to 'infinite' queues slowly,
// and the controller must still read finite latencies at 100% load.
const maxUtilization = 0.985

// At returns the sojourn distribution when requests arrive at rate lambda
// (per second) and interference inflates the mean service time by the
// factor inflate (>= 1) and the service-time CV by cvInflate (>= 1).
// freqScale scales the service rate for DVFS (1 = nominal frequency). It
// is the one-lane case of AtLanes.
//
// Degenerate operating points are clamped rather than propagated: a
// negative or NaN lambda models as an idle station (rate 0), matching how
// a load pattern that briefly computes a nonsensical rate should read —
// no offered load — instead of poisoning the lognormal fit with NaNs and
// panicking deep inside NewLognormal.
func (s Station) At(lambda, inflate, cvInflate, freqScale float64) Sojourn {
	var out [1]Sojourn
	s.AtLanes(out[:], []float64{lambda}, []float64{inflate}, []float64{cvInflate}, freqScale)
	return out[0]
}

// lanes is the scalar interleave width: the number of Erlang-B
// recursions one pass of erlangB advances side by side.
const lanes = 4

// chunk is the number of lanes atBlocks fits per call: the size of its
// stack scratch.
const chunk = 32

// AtLanes sets dst[j] to the sojourn distribution at the operating point
// (lambda[j], inflate[j], cvInflate[j]) and freqScale, as At defines it,
// for every lane j < len(dst); the three input slices are at least that
// long. Where sim runs its AVX-512 kernels, whole eight-lane blocks go
// through atBlocks. The rest, and every lane elsewhere, go four at a time
// through the scalar code, whose Erlang-B recursions run interleaved so
// their dependent divisions overlap instead of queueing one behind
// another. Each lane performs At's scalar IEEE operations in At's order,
// so every dst[j] has the bits of a lone At call.
func (s Station) AtLanes(dst []Sojourn, lambda, inflate, cvInflate []float64, freqScale float64) {
	if freqScale <= 0 {
		freqScale = 1
	}
	lo := 0
	for sim.KernelTier() >= sim.TierAVX512 && len(dst)-lo >= 8 {
		m := min(chunk, (len(dst)-lo)&^7)
		s.atBlocks(dst[lo:lo+m], lambda[lo:], inflate[lo:], cvInflate[lo:], freqScale)
		lo += m
	}
	for ; lo < len(dst); lo += lanes {
		n := min(lanes, len(dst)-lo)
		var service, mu, a, rho [lanes]float64
		for j := 0; j < n; j++ {
			service[j], mu[j], a[j], rho[j] = s.operatingPoint(lambda[lo+j], inflate[lo+j], freqScale)
		}
		var b [lanes]float64
		b[0], b[1], b[2], b[3] = erlangB(s.Workers, &a, n)
		for j := 0; j < n; j++ {
			s.finish(&dst[lo+j], service[j], mu[j], a[j], rho[j], b[j], cvInflate[lo+j])
		}
	}
}

// atBlocks is AtLanes over whole eight-lane blocks, at most chunk lanes,
// on sim's operating-point kernels: every lane's offered load first, then
// the blocks' Erlang-B recursions in one sim.ErlangBBlocks call, the
// waiting times and CVs in Go, and the lognormal fits in one
// sim.NewLognormals call.
func (s Station) atBlocks(dst []Sojourn, lambda, inflate, cvInflate []float64, freqScale float64) {
	n := len(dst)
	var service, mu, a, rho, b, mean, cv [chunk]float64
	for j := 0; j < n; j++ {
		service[j], mu[j], a[j], rho[j] = s.operatingPoint(lambda[j], inflate[j], freqScale)
	}
	// The kernel takes every block; lanes it left would run four at a time.
	for j := sim.ErlangBBlocks(s.Workers, a[:n], b[:n]); j < n; j += lanes {
		b[j], b[j+1], b[j+2], b[j+3] = erlangB(s.Workers, (*[lanes]float64)(a[j:j+lanes]), lanes)
	}
	for j := 0; j < n; j++ {
		meanWait, cvj := s.waitCV(mu[j], a[j], rho[j], b[j], cvInflate[j])
		dst[j] = Sojourn{MeanWait: meanWait, MeanService: service[j], CV: cvj, Utilization: rho[j]}
		mean[j], cv[j] = meanWait+service[j], cvj
	}
	var dist [chunk]sim.Lognormal
	sim.NewLognormals(dist[:n], mean[:n], cv[:n])
	for j := 0; j < n; j++ {
		dst[j].dist = dist[j]
	}
}

// operatingPoint returns one lane's mean service time, service rate,
// offered load (Erlangs, after the utilization cap) and utilization at
// arrival rate lambda, interference inflation inflate and a positive
// freqScale.
func (s Station) operatingPoint(lambda, inflate, freqScale float64) (service, mu, a, rho float64) {
	c := float64(s.Workers)
	if !(lambda > 0) {
		lambda = 0 // negative or NaN offered load: idle
	}
	if inflate < 1 {
		inflate = 1
	}
	service = s.BaseService * inflate / freqScale
	if s.ServiceLoadFactor > 0 {
		// Internal contention grows with nominal utilization.
		rhoNom := lambda * service / c
		if rhoNom > 1 {
			rhoNom = 1
		}
		service *= 1 + s.ServiceLoadFactor*rhoNom*rhoNom
	}
	mu = 1 / service
	a = lambda / mu // offered load in Erlangs
	rho = a / c
	if rho > maxUtilization {
		rho = maxUtilization
		a = rho * c
	}
	return service, mu, a, rho
}

// erlangB returns the Erlang-B blocking probability of c servers at the
// offered load of each of the first n lanes of a (1 <= n <= lanes), by
// the numerically stable recursion erlangBStep from B(0) = 1. Several
// lanes advance side by side, so their dependent divisions overlap; lanes
// from n on are padding whose results are discarded. A lone lane runs on
// its own, because a padding lane's division would still occupy the
// divider.
func erlangB(c int, a *[lanes]float64, n int) (b0, b1, b2, b3 float64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 = 1, 1, 1, 1
	if n == 1 {
		for k := 1; k <= c; k++ {
			b0 = erlangBStep(a0, b0, float64(k))
		}
		return b0, b1, b2, b3
	}
	for k := 1; k <= c; k++ {
		fk := float64(k)
		b0 = erlangBStep(a0, b0, fk)
		b1 = erlangBStep(a1, b1, fk)
		b2 = erlangBStep(a2, b2, fk)
		b3 = erlangBStep(a3, b3, fk)
	}
	return b0, b1, b2, b3
}

// erlangBStep is one step of the Erlang-B recursion at offered load a:
// B(k) = a*B(k-1)/(k + a*B(k-1)).
func erlangBStep(a, b, k float64) float64 { return a * b / (k + a*b) }

// finish sets *dst to one lane's sojourn distribution, from its offered
// load a (Erlangs, after the utilization cap), its utilization rho, its
// Erlang-B value b and its CV inflation.
func (s Station) finish(dst *Sojourn, service, mu, a, rho, b, cvInflate float64) {
	meanWait, cv := s.waitCV(mu, a, rho, b, cvInflate)
	*dst = Sojourn{
		MeanWait:    meanWait,
		MeanService: service,
		CV:          cv,
		Utilization: rho,
		dist:        sim.NewLognormal(meanWait+service, cv),
	}
}

// waitCV returns one lane's mean waiting time and sojourn CV, the mean
// (plus the service time) and CV its lognormal is fitted to.
func (s Station) waitCV(mu, a, rho, b, cvInflate float64) (meanWait, cv float64) {
	if cvInflate < 1 {
		cvInflate = 1
	}
	// Erlang-C, the probability that an arrival waits, from Erlang-B: 1
	// with no servers or at saturation.
	pWait := 1.0
	switch r := a / float64(s.Workers); {
	case s.Workers <= 0:
	case a <= 0:
		pWait = 0
	case !(r >= 1):
		pWait = b / (1 - r*(1-b))
	}
	// Mean M/M/c waiting time: Pwait / (c*mu - lambda).
	if denom := float64(s.Workers)*mu - a*mu; denom > 0 {
		meanWait = pWait / denom
	}
	// Sojourn CV: base service variability, amplified by utilization
	// (queueing adds variance) and by interference burstiness. Real
	// servers shed or reject work before their tails become unbounded,
	// so the CV saturates at maxCV.
	const maxCV = 2.0
	cv = s.BaseCV * cvInflate * (1 + s.LoadCVGrowth*rho*rho*rho*rho/(1-rho+0.05))
	if cv > maxCV {
		cv = maxCV
	}
	return meanWait, cv
}

// Solo returns the uncontended sojourn distribution at arrival rate lambda.
func (s Station) Solo(lambda float64) Sojourn { return s.At(lambda, 1, 1, 1) }

// MaxRate returns the arrival rate at which the station saturates
// (utilization = 1) without interference.
func (s Station) MaxRate() float64 {
	return float64(s.Workers) / s.BaseService
}
