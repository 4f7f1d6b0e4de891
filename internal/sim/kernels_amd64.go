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
