package sim

import "math"

// SelectQuantile returns exactly what sorting xs ascending and calling
// QuantileSorted would return, without the sort: a Floyd–Rivest partial
// selection materializes just the one or two order statistics the
// interpolation reads, so the cost is O(n) instead of O(n log n). The
// Monte Carlo tail estimator (queueing.PathP99Into) and the profiling
// statistics path call this once per estimate over fresh random data,
// where a full sort's comparison branches mispredict heavily.
//
// xs is partially reordered in place (the selection's partition order,
// which is unspecified); callers that need the original order must copy
// first — Quantile does exactly that and remains the copying entry point.
// Inputs must be NaN-free: selection uses plain < comparisons, while
// sort.Float64s orders NaNs first. Every producer in this repository
// (latency samples, path sums) is NaN-free by construction.
//
// An empty xs returns 0, like Quantile.
func SelectQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k, frac := QuantileRank(len(xs), q)
	return SelectRank(xs, k, frac)
}

// QuantileRank locates the q-quantile of n > 0 values the way
// QuantileSorted does: it is the k-th smallest value (0-based), or, when
// frac > 0, the interpolation between the k-th and (k+1)-th smallest by
// frac. q <= 0 maps to the minimum and q >= 1 to the maximum.
func QuantileRank(n int, q float64) (k int, frac float64) {
	if q <= 0 {
		return 0, 0
	}
	if q >= 1 {
		return n - 1, 0
	}
	pos := q * float64(n-1)
	k = int(math.Floor(pos))
	// pos - floor(pos) is exact, so frac == 0 exactly when QuantileSorted
	// finds lo == hi.
	return k, pos - float64(k)
}

// SelectRank returns the k-th smallest element of xs (0-based) when frac
// is 0, and otherwise the QuantileSorted interpolation
// xs_(k)*(1-frac) + xs_(k+1)*frac between it and the next order
// statistic, bit for bit. xs must be NaN-free and is partially reordered
// in place, like SelectQuantile; k+1 must be a valid rank when frac > 0.
// Callers that know more than xs — metrics.TailTracker selects over a
// filtered top slice of its window — pass the rank within xs directly.
func SelectRank(xs []float64, k int, frac float64) float64 {
	if frac == 0 {
		switch k {
		case 0:
			return minOf(xs)
		case len(xs) - 1:
			return maxOf(xs)
		}
	}
	floydRivestSelect(xs, k)
	if frac == 0 {
		return xs[k]
	}
	// After selection everything right of k is >= xs[k], so the next
	// order statistic is the minimum of that suffix — one linear scan
	// instead of a second selection.
	next := minOf(xs[k+1:])
	// The interpolation expression mirrors QuantileSorted exactly; the
	// differential test pins equality bit-for-bit.
	return xs[k]*(1-frac) + next*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// floydRivestSelect partially reorders a so that a[k] holds the k-th
// smallest element, everything left of k is <= a[k] and everything right
// is >= a[k]. It is the classic Floyd–Rivest SELECT (CACM 18(3), 1975) —
// deterministic, no RNG involvement (the estimator must not perturb any
// simulation stream).
func floydRivestSelect(a []float64, k int) {
	frSelect(a, 0, len(a)-1, k)
}

func frSelect(a []float64, left, right, k int) {
	for right > left {
		if right-left > 600 {
			// On large ranges, recursively select within a sampled
			// sub-interval first so a[k] becomes a near-exact pivot for
			// the partition below; this is what bounds the expected
			// comparison count at n + min(k, n-k) + o(n).
			n := float64(right - left + 1)
			i := float64(k-left) + 1
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			nl := left
			if v := int(float64(k) - i*s/n + sd); v > nl {
				nl = v
			}
			nr := right
			if v := int(float64(k) + (n-i)*s/n + sd); v < nr {
				nr = v
			}
			frSelect(a, nl, nr, k)
		}
		// Hoare partition around the current a[k], with the pivot parked
		// at the ends (Floyd–Rivest's arrangement keeps duplicates from
		// degrading the split).
		t := a[k]
		i, j := left, right
		a[i], a[k] = a[k], a[i]
		if a[j] > t {
			a[i], a[j] = a[j], a[i]
		}
		for i < j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
			for a[i] < t {
				i++
			}
			for a[j] > t {
				j--
			}
		}
		if a[left] == t {
			a[left], a[j] = a[j], a[left]
		} else {
			j++
			a[j], a[right] = a[right], a[j]
		}
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}
