package sim_test

import (
	"math"
	"testing"

	"rhythm/internal/sim"
)

// FuzzLognormalKernels holds every kernel tier the host has to the scalar
// tier on arbitrary inputs: two successive LognormalDraws calls, the
// second continuing the first's stream, over a k-stage path (k from 1 to
// 9) whose first stage has the fuzzed mu and sigma and whose last stage
// has mu = x; the fused route over uniform pairs with u
// planted in u1 and sigma in u2; the uniform pass over up to 520 pairs
// from the fuzzed seed as generator state; and each four-lane pass over
// uniforms with u planted in them and exp arguments with x planted in
// them. NaN, ±Inf, ±0, subnormals and out-of-range lanes must come out the
// same bits at every tier, and the samplers and the uniform pass must
// leave the stream at the same position. The zero-* corpus seeds plant a
// zero u1 or u2 (found by inverting splitmix64's finalizer; see
// uniform_test.go) in a block lane, at a block boundary and at the last
// pair. On hosts without the kernels only the scalar tier runs.
func FuzzLognormalKernels(f *testing.F) {
	f.Add(uint64(2020), uint8(4), uint16(37), -5.0, 0.4, 0.5, -3.0)
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, n uint16, mu, sigma, u, x float64) {
		stages := int(k%9) + 1
		draws := int(n%300) + 1
		mus := make([]float64, stages)
		sigmas := make([]float64, stages)
		p := sim.NewRNG(seed)
		for s := range mus {
			mus[s] = -8 + 6*p.Float64()
			sigmas[s] = p.Float64()
		}
		mus[0], sigmas[0] = mu, sigma
		mus[stages-1] = x

		// Random lanes with the fuzzed value planted at two seed-chosen
		// positions and at the end.
		size := int(n%61) + 1
		plant := func(v float64) []float64 {
			xs := make([]float64, size)
			for i := range xs {
				xs[i] = p.Float64()
			}
			xs[int(seed%uint64(size))] = v
			xs[int(seed>>32%uint64(size))] = v
			xs[size-1] = v
			return xs
		}
		cs := plant(u)
		rowLanes := size - size%stages
		u1, u2 := plant(u)[:rowLanes], plant(sigma)[:rowLanes]
		passes := []struct {
			name string
			in   []float64
			pass func([]float64)
		}{
			{"radius", plant(u), sim.RadiusPass},
			{"angle", plant(sigma), func(zr []float64) { sim.AnglePass(zr, cs) }},
			{"exp", plant(x), sim.ExpPass},
		}

		// run computes every check's output at the current tier.
		run := func() (outs [][]float64, nexts []uint64) {
			// The samplers.
			r := sim.NewRNG(seed)
			vals := make([]float64, 2*draws*stages)
			sim.LognormalDraws(vals[:draws*stages], mus, sigmas, r)
			sim.LognormalDraws(vals[draws*stages:], mus, sigmas, r)
			outs = append(outs, vals)
			nexts = append(nexts, r.Uint64())

			// The fused route (the chunk routine after its uniforms; the
			// pass route overwrites u1 and u2 as scratch).
			lns := make([]float64, rowLanes)
			sim.Lognormals(lns, append([]float64(nil), u1...), append([]float64(nil), u2...), mus, sigmas)
			outs = append(outs, lns)

			// The uniform pass, from the fuzzed state.
			pairs := int(n % 521)
			r = sim.NewRNG(seed)
			us := make([]float64, 2*pairs)
			sim.BoxMullerUniforms(us[:pairs], us[pairs:], r)
			outs = append(outs, us)
			nexts = append(nexts, r.Uint64())

			// The passes.
			for _, c := range passes {
				got := append([]float64(nil), c.in...)
				c.pass(got)
				outs = append(outs, got)
			}
			return outs, nexts
		}
		names := []string{"samplers", "lognormals", "uniforms", "radius", "angle", "exp"}
		nextNames := []string{"samplers", "uniforms"}

		restore := sim.ForceTier(sim.TierScalar)
		want, wantNext := run()
		restore()
		for tr := sim.TierAVX2; tr <= sim.HostTier(); tr++ {
			restore := sim.ForceTier(tr)
			got, gotNext := run()
			restore()
			for i := range want {
				same(t, tr.String()+" "+names[i], got[i], want[i])
			}
			for i := range wantNext {
				if gotNext[i] != wantNext[i] {
					t.Fatalf("%v: %s stream position diverged: %x vs %x", tr, nextNames[i], gotNext[i], wantNext[i])
				}
			}
		}
	})
}

func same(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %x (%v), scalar %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}
