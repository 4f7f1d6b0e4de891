//go:build !amd64 || purego || amd64.v3

package sim

// tier is TierScalar where kernels_amd64.s is not built: the batched
// samplers run their scalar passes only.
var tier = TierScalar

func radiusAVX2([]float64) int                     { panic("sim: no vector kernels") }
func angleAVX2(_, _ []float64) int                 { panic("sim: no vector kernels") }
func expAVX2([]float64) int                        { panic("sim: no vector kernels") }
func uniformsAVX512(_, _ []float64, _ *uint64) int { panic("sim: no vector kernels") }
func lognormalAVX512(_, _, _, _, _ []float64, _ int) int {
	panic("sim: no vector kernels")
}
func normOverAVX512(_, _ []float64, _, _ float64, _ *[sumBatch / 64]uint64) int {
	panic("sim: no vector kernels")
}
func erlangBAVX512(int, []float64, []float64) int { panic("sim: no vector kernels") }
func powAVX512(_, _ []float64, _ float64, _ uint64, _ bool) int {
	panic("sim: no vector kernels")
}
func lognormalFitAVX512(_, _, _, _ []float64) int { panic("sim: no vector kernels") }
