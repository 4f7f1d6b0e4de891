package sim

import "math"

// cos2pi returns math.Cos(2 * math.Pi * u) bit-for-bit, restructured for
// throughput: the tail-estimation hot path calls it once per normal draw
// (RNG.NormFloat64), where the argument is always 2π·u for a uniform
// u ∈ [0, 1).
//
// The standard library's cos kernel (math/sin.go, the Cephes cmath sin.c
// derivation) selects the octant, the result sign and one of two
// polynomials through four data-dependent branches. For uniformly random
// arguments each is close to a coin flip, so the branch predictor
// mispredicts ~2 times per call and the kernel measures ~28ns/op on random
// inputs — nearly 3x its cost on repeated (predictor-trained) inputs. This
// version computes the identical floating-point expressions but replaces
// every data-dependent branch with integer arithmetic: the octant fixup,
// the sign and the polynomial choice become bit operations on j, both
// polynomials are evaluated unconditionally (they pipeline in parallel —
// the second polynomial is cheaper than one mispredict), and the selected
// result is assembled from its bit pattern. Measured ~13ns/op on the same
// random inputs.
//
// Bit-identity holds because no floating-point operation changed: the
// argument reduction, both polynomial evaluations and the final negation
// (an IEEE sign-bit flip, exactly what `y = -y` does) are the stdlib's
// expressions verbatim, in the same association order; only the *selection*
// between already-computed results is new. TestCos2PiMatchesStdlib pins
// this over the full uniform range and the octant boundaries. Arguments
// outside [0, 2^29) — impossible for 2π·u with u ∈ [0, 1), but reachable
// through a hostile u — fall back to math.Cos. angleAVX2
// (kernels_amd64.s) is a four-lane port of this function; a change here
// must be mirrored there.
func cos2pi(u float64) float64 {
	const (
		pi4a            = 7.85398125648498535156e-1 // Pi/4 split into three parts
		pi4b            = 3.77489470793079817668e-8 // (math/sin.go PI4A/B/C)
		pi4c            = 2.69515142907905952645e-15
		reduceThreshold = 1 << 29
	)
	x := 2 * math.Pi * u
	if !(x >= 0 && x < reduceThreshold) {
		// Negative, huge or NaN argument: not a hot-path input.
		return math.Cos(x)
	}

	j := uint64(x * (4 / math.Pi)) // octant index, as in math.cos
	y := float64(j)
	odd := j & 1 // map zeros to origin: stdlib's `if j&1 == 1 { j++; y++ }`
	j += odd
	y += float64(odd)
	j &= 7
	z := ((x - y*pi4a) - y*pi4b) - y*pi4c // extended-precision reduction

	// Stdlib: `if j > 3 { j -= 4; sign = !sign }; if j > 1 { sign = !sign }`
	// over j ∈ [0, 7] is bit 2 XOR bit 1 of j.
	sign := ((j >> 2) ^ (j >> 1)) & 1
	// The sine polynomial is used for post-reduction octants 1 and 2
	// (j&3 ∈ {1, 2}), which is bit 1 of (j&3)+1.
	sel := (((j & 3) + 1) >> 1) & 1

	zz := z * z
	ysin := z + z*zz*((((((1.58962301576546568060e-10*zz)+-2.50507477628578072866e-8)*zz+2.75573136213857245213e-6)*zz+-1.98412698295895385996e-4)*zz+8.33333333332211858878e-3)*zz+-1.66666666666666307295e-1)
	ycos := 1.0 - 0.5*zz + zz*zz*((((((-1.13585365213876817300e-11*zz)+2.08757008419747316778e-9)*zz+-2.75573141792967388112e-7)*zz+2.48015872888517045348e-5)*zz+-1.38888888888730564116e-3)*zz+4.16666666666665929218e-2)

	mask := -sel // all-ones selects the sine polynomial
	bits := (math.Float64bits(ycos) &^ mask) | (math.Float64bits(ysin) & mask)
	bits ^= sign << 63
	return math.Float64frombits(bits)
}

// cos2pi2 is cos2pi over two independent arguments in one call: the batch
// sampler's angle pass is latency-bound (the reduction and polynomial form
// one serial FP chain per element), so evaluating two interleaved chains
// per call overlaps them explicitly and halves the call overhead. Each
// result is exactly cos2pi of its argument.
func cos2pi2(u0, u1 float64) (float64, float64) {
	const (
		pi4a            = 7.85398125648498535156e-1
		pi4b            = 3.77489470793079817668e-8
		pi4c            = 2.69515142907905952645e-15
		reduceThreshold = 1 << 29
	)
	x0 := 2 * math.Pi * u0
	x1 := 2 * math.Pi * u1
	if !(x0 >= 0 && x0 < reduceThreshold) || !(x1 >= 0 && x1 < reduceThreshold) {
		return math.Cos(x0), math.Cos(x1)
	}

	j0 := uint64(x0 * (4 / math.Pi))
	j1 := uint64(x1 * (4 / math.Pi))
	y0 := float64(j0)
	y1 := float64(j1)
	odd0 := j0 & 1
	odd1 := j1 & 1
	j0 += odd0
	j1 += odd1
	y0 += float64(odd0)
	y1 += float64(odd1)
	j0 &= 7
	j1 &= 7
	z0 := ((x0 - y0*pi4a) - y0*pi4b) - y0*pi4c
	z1 := ((x1 - y1*pi4a) - y1*pi4b) - y1*pi4c

	sign0 := ((j0 >> 2) ^ (j0 >> 1)) & 1
	sign1 := ((j1 >> 2) ^ (j1 >> 1)) & 1
	sel0 := (((j0 & 3) + 1) >> 1) & 1
	sel1 := (((j1 & 3) + 1) >> 1) & 1

	zz0 := z0 * z0
	zz1 := z1 * z1
	ysin0 := z0 + z0*zz0*((((((1.58962301576546568060e-10*zz0)+-2.50507477628578072866e-8)*zz0+2.75573136213857245213e-6)*zz0+-1.98412698295895385996e-4)*zz0+8.33333333332211858878e-3)*zz0+-1.66666666666666307295e-1)
	ysin1 := z1 + z1*zz1*((((((1.58962301576546568060e-10*zz1)+-2.50507477628578072866e-8)*zz1+2.75573136213857245213e-6)*zz1+-1.98412698295895385996e-4)*zz1+8.33333333332211858878e-3)*zz1+-1.66666666666666307295e-1)
	ycos0 := 1.0 - 0.5*zz0 + zz0*zz0*((((((-1.13585365213876817300e-11*zz0)+2.08757008419747316778e-9)*zz0+-2.75573141792967388112e-7)*zz0+2.48015872888517045348e-5)*zz0+-1.38888888888730564116e-3)*zz0+4.16666666666665929218e-2)
	ycos1 := 1.0 - 0.5*zz1 + zz1*zz1*((((((-1.13585365213876817300e-11*zz1)+2.08757008419747316778e-9)*zz1+-2.75573141792967388112e-7)*zz1+2.48015872888517045348e-5)*zz1+-1.38888888888730564116e-3)*zz1+4.16666666666665929218e-2)

	mask0 := -sel0
	mask1 := -sel1
	bits0 := (math.Float64bits(ycos0) &^ mask0) | (math.Float64bits(ysin0) & mask0)
	bits1 := (math.Float64bits(ycos1) &^ mask1) | (math.Float64bits(ysin1) & mask1)
	bits0 ^= sign0 << 63
	bits1 ^= sign1 << 63
	return math.Float64frombits(bits0), math.Float64frombits(bits1)
}
