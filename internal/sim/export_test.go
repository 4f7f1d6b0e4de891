package sim

// Test-only hooks for the external tests in package sim_test.

// ForceScalar switches the batched samplers to their scalar passes, the
// reference the vector kernels are held to, until restore is called.
func ForceScalar() (restore func()) {
	prev := useKernels
	useKernels = false
	return func() { useKernels = prev }
}

// The kernel passes, each dispatching to its kernel where available.
var (
	RadiusPass = radiusPass
	AnglePass  = anglePass
	ExpPass    = expPass
)
