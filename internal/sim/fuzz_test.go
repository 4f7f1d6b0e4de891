package sim_test

import (
	"math"
	"testing"

	"rhythm/internal/sim"
)

// FuzzLognormalKernels holds the vector kernels to the scalar reference
// on arbitrary inputs: the batched samplers over a k-stage path (k from 1
// to 9) whose first stage has the fuzzed mu and sigma and whose last
// stage has mu = x, and each kernel pass over uniforms with u planted in
// them and exp arguments with x planted in them. NaN, ±Inf, ±0,
// subnormals and out-of-range lanes must come out the same bits on both
// paths, and the samplers must leave the stream at the same position. On
// hosts without the kernels both paths are the scalar one.
func FuzzLognormalKernels(f *testing.F) {
	f.Add(uint64(2020), uint8(4), uint16(37), -5.0, 0.4, 0.5, -3.0)
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, n uint16, mu, sigma, u, x float64) {
		stages := int(k%9) + 1
		draws := int(n%300) + 1

		// The samplers.
		mus := make([]float64, stages)
		sigmas := make([]float64, stages)
		p := sim.NewRNG(seed)
		for s := range mus {
			mus[s] = -8 + 6*p.Float64()
			sigmas[s] = p.Float64()
		}
		mus[0], sigmas[0] = mu, sigma
		mus[stages-1] = x
		sample := func() (vals []float64, next uint64) {
			r := sim.NewRNG(seed)
			vals = make([]float64, draws*stages+draws)
			sim.LognormalDraws(vals[:draws*stages], mus, sigmas, r)
			sim.SumLognormals(vals[draws*stages:], mus, sigmas, r)
			return vals, r.Uint64()
		}
		vec, vecNext := sample()
		restore := sim.ForceScalar()
		sca, scaNext := sample()
		restore()
		same(t, "samplers", vec, sca)
		if vecNext != scaNext {
			t.Fatalf("stream position diverged: %x vs %x", vecNext, scaNext)
		}

		// The passes, over random lanes with the fuzzed ones planted at
		// two seed-chosen positions and at the end.
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
		for _, c := range []struct {
			name string
			in   []float64
			pass func([]float64)
		}{
			{"radius", plant(u), sim.RadiusPass},
			{"angle", plant(sigma), func(zr []float64) { sim.AnglePass(zr, cs) }},
			{"exp", plant(x), sim.ExpPass},
		} {
			got := append([]float64(nil), c.in...)
			c.pass(got)
			restore := sim.ForceScalar()
			want := append([]float64(nil), c.in...)
			c.pass(want)
			restore()
			same(t, c.name, got, want)
		}
	})
}

func same(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: vector %x (%v), scalar %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}
