//go:build amd64 && !purego && !amd64.v3

package sim

// tier is the batched samplers' kernel tier (kernels_amd64.s), chosen once
// at start-up by probeTier. Under GOAMD64=v3 (or the purego tag) this file
// is not built and the tier is TierScalar: the compiler may then fuse
// cos2pi's Go polynomials into FMAs, and the unfused kernels would no
// longer match them.
var tier = probeTier()

// probeTier reads CPUID and XCR0 once and returns the highest tier whose
// every instruction the host runs and whose register state the OS saves:
//
//   - TierAVX2: AVX, AVX2 and FMA, and XCR0 bits 1-2 (XMM and YMM state).
//     On such a host math.Exp itself takes its FMA path, which is the path
//     the exp kernels reproduce.
//   - TierAVX512: TierAVX2 plus AVX-512F and DQ (VPMULLQ, VCVTUQQ2PD,
//     VCVTPD2QQ, KORTESTB) and XCR0 bits 5-7 (0xE6 in all: opmask, ZMM0-15
//     upper halves, ZMM16-31). Every EVEX instruction in the kernels works
//     on Z registers, so AVX-512VL is not needed.
func probeTier() Tier {
	const (
		fma      = 1 << 12 // CPUID.1:ECX
		osxsave  = 1 << 27
		avx      = 1 << 28
		avx2     = 1 << 5 // CPUID.(7,0):EBX
		avx512f  = 1 << 16
		avx512dq = 1 << 17
		ymmState = 1<<1 | 1<<2 // XCR0
		zmmState = ymmState | 1<<5 | 1<<6 | 1<<7
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return TierScalar
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(fma|osxsave|avx) != fma|osxsave|avx {
		return TierScalar // XGETBV needs OSXSAVE
	}
	xcr0 := xgetbv()
	_, b7, _, _ := cpuid(7, 0)
	if xcr0&ymmState != ymmState || b7&avx2 == 0 {
		return TierScalar
	}
	if xcr0&zmmState != zmmState || b7&(avx512f|avx512dq) != avx512f|avx512dq {
		return TierAVX2
	}
	return TierAVX512
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32

// radiusAVX2 replaces each u in zr by math.Sqrt(-2*math.Log(u)), four
// lanes at a time, and returns the number of elements done: a multiple of
// 4, stopping before the first block holding a u outside (0, 1).
//
//go:noescape
func radiusAVX2(zr []float64) int

// angleAVX2 multiplies each zr[i] by cos2pi(cs[i]), four lanes at a time,
// and returns the number of elements done: a multiple of 4, stopping
// before the first block holding a cs[i] outside [0, 1). len(cs) must be
// at least len(zr).
//
//go:noescape
func angleAVX2(zr, cs []float64) int

// expAVX2 replaces each x in xs by math.Exp(x), four lanes at a time, and
// returns the number of elements done: a multiple of 4, stopping before
// the first block holding an x for which math.Exp would leave its main
// path (non-finite, overflowing or subnormal results).
//
//go:noescape
func expAVX2(xs []float64) int

// uniformsAVX512 fills zr and cs with the next eight Box-Muller uniform
// pairs per block — u1 to zr, u2 to cs, the values r.Float64 would return
// in stream order — advancing *state past them. It returns the number of
// pairs done: a multiple of 8, stopping before the first block with a
// zero u1 (NormFloat64 redraws those). len(cs) must be at least len(zr).
//
//go:noescape
func uniformsAVX512(zr, cs []float64, state *uint64) int

// lognormalAVX512 writes out[i] = math.Exp(mu + sigma*z) for the
// Box-Muller normal z = math.Sqrt(-2*math.Log(u1[i])) * cos2pi(u2[i]),
// eight lanes at a time. muPat and sigmaPat are stage patterns of length
// k+7 (pat[t] = param[t%k]) and off is the stage of element 0: element i
// reads muPat[(off+i)%k], and block b reads the pattern from (off+8b)%k
// on. It returns the number of elements done, a multiple of 8, stopping
// before the first block with a lane off the scalar code's main path (u1
// outside (0, 1), u2 outside [0, 1), or an exp argument math.Exp would
// not take down its main path). out may alias u1; len(u1) and len(u2)
// must be at least len(out).
//
//go:noescape
func lognormalAVX512(out, u1, u2, muPat, sigmaPat []float64, off int) int

// normOverAVX512 writes the lazy samplers' element verdicts (normOver)
// for u1 and u2, eight pairs per block, lane i to bit i%64 of over[i/64],
// and returns the number of elements done: every whole block. len(u2)
// must be at least len(u1), and len(u1) at most sumBatch.
//
//go:noescape
func normOverAVX512(u1, u2 []float64, floor, t2 float64, over *[sumBatch / 64]uint64) int

// erlangBAVX512 sets b[j] to the Erlang-B blocking probability of c
// servers at offered load a[j], sixteen lanes (two interleaved blocks) at
// a time and then eight, and returns the number of lanes done: len(b)
// rounded down to a multiple of 8. len(a) must be at least len(b).
//
//go:noescape
func erlangBAVX512(c int, a, b []float64) int

// powAVX512 writes dst[i] = math.Pow(x[i], y) for the y that powSplit
// split into yi and yf (neg when y < 0), eight lanes at a time, and
// returns the number of elements done: a multiple of 8, stopping before
// the first block with a lane off math.Pow's general path (PowLanes).
// len(x) must be at least len(dst).
//
//go:noescape
func powAVX512(dst, x []float64, yf float64, yi uint64, neg bool) int

// lognormalFitAVX512 writes the log-space parameters NewLognormal(mean[i],
// cv[i]) fits to mu[i] and sigma[i], eight lanes at a time, and returns
// the number of elements done: a multiple of 8, stopping before the first
// block with a lane off the fit's main path (NewLognormals). sigma, mean
// and cv must be at least as long as mu.
//
//go:noescape
func lognormalFitAVX512(mu, sigma, mean, cv []float64) int
