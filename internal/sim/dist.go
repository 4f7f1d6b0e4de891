package sim

import (
	"fmt"
	"math"
)

// Lognormal is a lognormal distribution parameterized by its (linear-space)
// mean and coefficient of variation, the natural parameterization for
// service-time models where we calibrate mean and tail heaviness
// independently.
type Lognormal struct {
	mu    float64 // log-space mean
	sigma float64 // log-space stddev
	mean  float64
	cv    float64
}

// NewLognormal returns a lognormal distribution with the given linear-space
// mean and coefficient of variation. It panics if mean <= 0 or cv < 0.
func NewLognormal(mean, cv float64) Lognormal {
	if mean <= 0 {
		panic(fmt.Sprintf("sim: lognormal mean must be positive, got %g", mean))
	}
	if cv < 0 {
		panic(fmt.Sprintf("sim: lognormal cv must be non-negative, got %g", cv))
	}
	// For X ~ LogNormal(mu, sigma):
	//   E[X]   = exp(mu + sigma^2/2)
	//   CV^2   = exp(sigma^2) - 1
	s2 := math.Log(1 + cv*cv)
	return Lognormal{
		mu:    math.Log(mean) - s2/2,
		sigma: math.Sqrt(s2),
		mean:  mean,
		cv:    cv,
	}
}

// Sample draws a lognormal variate.
func (l Lognormal) Sample(r *RNG) float64 {
	return math.Exp(l.mu + l.sigma*r.NormFloat64())
}

// LogParams returns the log-space mean and standard deviation, the
// parameters a fused sampler needs to reproduce Sample's exact expression
// (exp(mu + sigma*z)) without going through the method: LognormalDraws
// and Sampler.DrawsBetween take many distributions as (mu, sigma)
// structure-of-arrays parameters and draw in bulk.
func (l Lognormal) LogParams() (mu, sigma float64) { return l.mu, l.sigma }

// Mean returns the linear-space mean.
func (l Lognormal) Mean() float64 { return l.mean }

// CV returns the linear-space coefficient of variation.
func (l Lognormal) CV() float64 { return l.cv }

// Quantile returns the q-quantile (0 < q < 1) of the lognormal.
func (l Lognormal) Quantile(q float64) float64 {
	return math.Exp(l.mu + l.sigma*normQuantile(q))
}

// normQuantile returns the standard normal quantile using the
// Beasley-Springer-Moro rational approximation (max abs error ~3e-9), good
// enough for p99/p999 targets.
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("sim: normQuantile requires 0 < p < 1, got %g", p))
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormQuantile exposes the standard normal quantile for other packages
// (e.g. analytic p99 computations in the queueing model).
func NormQuantile(p float64) float64 { return normQuantile(p) }
