package sim

// Test-only hooks for the external tests in package sim_test.

// hostTier is the tier the start-up probe chose; tests may run any tier up
// to it.
var hostTier = tier

// HostTier reports the highest kernel tier this host and build can run.
func HostTier() Tier { return hostTier }

// ForceTier switches the batched samplers to tier t until restore is
// called. TierScalar gives the reference every vector tier is held to; a
// tier above HostTier panics.
func ForceTier(t Tier) (restore func()) {
	if t > hostTier {
		panic("sim: ForceTier above the host's tier")
	}
	prev := tier
	tier = t
	return func() { tier = prev }
}

// Lognormals runs the batched samplers' chunk routine after its uniform
// pass, at the current tier: out[i] = exp(mu[s] + sigma[s]*z) for stage
// s = i%k and the Box-Muller normal z of (u1[i], u2[i]). len(out) must be
// a whole number of rows.
func Lognormals(out, u1, u2, mu, sigma []float64) {
	c := Sampler{mu: mu, sigma: sigma}
	c.init()
	c.lognormals(out, u1, u2)
}

// The kernel passes, each dispatching to its kernel where available.
var (
	RadiusPass = radiusPass
	AnglePass  = anglePass
	ExpPass    = expPass
)
