package sim

import (
	"math"
	"sort"
)

// Welford accumulates mean and variance in a single numerically stable pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than two samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// CV returns the coefficient of variation (stddev / |mean|), 0 when the
// mean is 0. The magnitude of the mean is what normalizes dispersion: a
// series centred at -10 is exactly as variable as its mirror at +10, so
// the CV is non-negative for every input.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Std() / math.Abs(w.mean)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
// An empty input returns 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile over an already ascending-sorted slice.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series is constant or the lengths differ or are
// shorter than two samples; the analyzer treats "no detectable correlation"
// as zero contribution, matching Eq. 2's use in the paper.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against floating-point drift outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// CoV returns the coefficient of variation of xs (stddev/|mean|, unbiased
// variance), 0 for fewer than two samples or a zero mean.
func CoV(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.CV()
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
