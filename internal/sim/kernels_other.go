//go:build !amd64 || purego || amd64.v3

package sim

// useKernels is false where kernels_amd64.s is not built: the batched
// samplers run their scalar passes only.
var useKernels = false

func radiusAVX2([]float64) int     { panic("sim: no vector kernels") }
func angleAVX2(_, _ []float64) int { panic("sim: no vector kernels") }
func expAVX2([]float64) int        { panic("sim: no vector kernels") }
