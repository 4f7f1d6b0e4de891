package sim

import "math"

// Operating-point batches. The engine's block phase evaluates every pod's
// operating point on every tick: interference inflation (a math.Pow per
// pressured resource), then an M/M/c sojourn fit (an Erlang-B recursion
// and a lognormal fit). These three functions run that arithmetic over a
// block's lanes, on the AVX-512 kernels in kernels_amd64.s where the host
// runs TierAVX512 and in Go otherwise. Either way every lane has the bits
// of the scalar expression it replaces.

// ErlangBBlocks sets b[j] to the Erlang-B blocking probability of c
// servers at offered load a[j] for the lanes of whole eight-lane blocks,
// and returns how many lanes it did: a multiple of 8, and 0 below
// TierAVX512. Each lane runs the recursion B(k) = a·B(k−1)/(k + a·B(k−1))
// from B(0) = 1 as one rounded multiply, add and divide per step, k held
// as an exact float, so it has the bits of the scalar recursion; the
// caller computes the remaining lanes. len(a) must be at least len(b).
func ErlangBBlocks(c int, a, b []float64) int {
	if tier < TierAVX512 || len(b) < 8 {
		return 0
	}
	return erlangBAVX512(c, a, b)
}

// PowLanes sets dst[j] = math.Pow(x[j], y) for every j < len(dst), bit for
// bit. len(x) must be at least len(dst).
//
// At TierAVX512, when y takes math.Pow's general path (y finite and not an
// integer, 0.5 or -0.5), the kernel follows that path for eight lanes at a
// time: Exp(yf·Log(x)) with the archLog and archExp ports, the Frexp
// squaring loop over the bits of yi, the reciprocal for y < 0 and the
// final Ldexp. A block with a lane off that path — x not a finite,
// positive, normal number other than 1, an exp argument archExp would not
// take down its main path, the squaring loop's exponent guard, or a result
// exponent outside the normal range — is computed by math.Pow, as is the
// len%8 tail.
func PowLanes(dst, x []float64, y float64) {
	done := 0
	if tier >= TierAVX512 && len(dst) >= 8 {
		if yi, yf, ok := powSplit(y); ok {
			neg := y < 0
			for len(dst)-done >= 8 {
				done += powAVX512(dst[done:], x[done:], yf, yi, neg)
				if len(dst)-done < 8 {
					break
				}
				for end := done + 8; done < end; done++ {
					dst[done] = math.Pow(x[done], y)
				}
			}
		}
	}
	for ; done < len(dst); done++ {
		dst[done] = math.Pow(x[done], y)
	}
}

// powSplit reports whether math.Pow(x, y) takes its general path, a1 =
// Exp(yf·Log(x)) times the squarings of x by the bits of yi, for every
// finite positive normal x other than 1, and returns that path's yi and yf
// after its yf > 0.5 adjustment. The special cases math.Pow checks before
// the general path, and integer y (whose general path skips the Exp), are
// left to math.Pow.
func powSplit(y float64) (yi uint64, yf float64, ok bool) {
	if math.IsNaN(y) || y == 0.5 || y == -0.5 {
		return 0, 0, false
	}
	// Integers (0 and 1 among them) have no fraction; ±Inf and huge y
	// have an integer part of 2^63 or more.
	fi, ff := math.Modf(math.Abs(y))
	if ff == 0 || fi >= 1<<63 {
		return 0, 0, false
	}
	if ff > 0.5 {
		ff--
		fi++
	}
	return uint64(fi), ff, true
}

// fitBatch is the number of lanes NewLognormals fits per kernel call, the
// size of its stack scratch.
const fitBatch = 32

// NewLognormals sets dst[j] = NewLognormal(mean[j], cv[j]) for every j <
// len(dst), bit for bit, and panics as NewLognormal does. len(mean) and
// len(cv) must be at least len(dst).
//
// At TierAVX512 the kernel fits eight lanes at a time: s2 = Log(1+cv²),
// mu = Log(mean) − s2/2 and sigma = Sqrt(s2), with the archLog port and
// the correctly rounded VSQRTPD. From the first block with a lane that
// NewLognormal would reject or whose logs leave archLog's main path (mean
// not positive and finite, cv negative or NaN, 1+cv² infinite) to the end
// of the batch, the lanes take NewLognormal.
func NewLognormals(dst []Lognormal, mean, cv []float64) {
	var mu, sigma [fitBatch]float64
	for lo := 0; lo < len(dst); lo += fitBatch {
		n := min(fitBatch, len(dst)-lo)
		done := 0
		if tier >= TierAVX512 && n >= 8 {
			done = lognormalFitAVX512(mu[:n], sigma[:n], mean[lo:lo+n], cv[lo:lo+n])
		}
		for j := 0; j < done; j++ {
			dst[lo+j] = Lognormal{mu: mu[j], sigma: sigma[j], mean: mean[lo+j], cv: cv[lo+j]}
		}
		for j := lo + done; j < lo+n; j++ {
			dst[j] = NewLognormal(mean[j], cv[j])
		}
	}
}
