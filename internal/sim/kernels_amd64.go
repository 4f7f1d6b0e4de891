//go:build amd64 && !purego && !amd64.v3

package sim

// useKernels selects the AVX2+FMA kernels in kernels_amd64.s for the
// batched samplers' radius, angle and exp passes. It is decided once, from
// CPUID: the kernels need AVX2, FMA and an OS that saves the YMM state.
// On such a host math.Exp itself takes its FMA path, which is the path
// expAVX2 reproduces. Under GOAMD64=v3 (or the purego tag) this file is
// not built: the compiler may then fuse cos2pi's Go polynomials into FMAs,
// and the unfused kernel would no longer match them.
var useKernels = hasAVX2FMA()

func hasAVX2FMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(fma|osxsave|avx) != fma|osxsave|avx || xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2 != 0
}

// useUniformKernel selects uniformsAVX512 for the samplers' uniform pass.
// It is decided once, from CPUID: the kernel needs AVX-512F and DQ (for
// VPMULLQ and VCVTUQQ2PD) and an OS that saves the opmask and ZMM state.
// There is no AVX2 uniform kernel: AVX2 has no 64-bit lane multiply, so
// such hosts draw the uniforms with the scalar loop.
var useUniformKernel = hasAVX512DQ()

func hasAVX512DQ() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx512f  = 1 << 16 // CPUID.(7,0):EBX
		avx512dq = 1 << 17
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XCR0: XMM, YMM, opmask, ZMM0-15 high, ZMM16-31
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || xgetbv()&zmmState != zmmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(avx512f|avx512dq) == avx512f|avx512dq
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
