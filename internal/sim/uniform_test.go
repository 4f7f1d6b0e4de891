package sim

import (
	"fmt"
	"testing"
)

// The uniform kernel must reproduce the scalar uniform loop bit for bit
// and leave the generator at the same stream position, including around
// the rare zero u1 that makes NormFloat64 redraw. A random state almost
// never produces one (a Uint64 below 2^11), so the tests plant them by
// inverting splitmix64's finalizer.

const gamma = 0x9e3779b97f4a7c15

// unxorshift inverts z ^= z >> k.
func unxorshift(z uint64, k uint) uint64 {
	x := z
	for s := k; s < 64; s += k {
		x ^= z >> s
	}
	return x
}

// inverse returns the multiplicative inverse of an odd m modulo 2^64.
func inverse(m uint64) uint64 {
	inv := m // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return inv
}

// plantedState returns the state s0 for which the pos-th Uint64 (1-based)
// drawn from NewRNG(s0) is v.
func plantedState(pos int, v uint64) uint64 {
	z := unxorshift(v, 31)
	z = unxorshift(z*inverse(0x94d049bb133111eb), 27)
	z = unxorshift(z*inverse(0xbf58476d1ce4e5b9), 30)
	return z - uint64(pos)*gamma
}

// uniformsBothPaths runs the uniform pass over n pairs from state s0 on
// the kernel and scalar paths and demands the same bits and the same
// final state. It returns the number of stream values the pass consumed.
func uniformsBothPaths(t *testing.T, s0 uint64, n int) uint64 {
	t.Helper()
	run := func() (zr, cs []float64, state uint64) {
		r := NewRNG(s0)
		zr, cs = make([]float64, n), make([]float64, n)
		BoxMullerUniforms(zr, cs, r)
		return zr, cs, r.state
	}
	vz, vc, vs := run()
	restore := ForceTier(TierScalar)
	sz, sc, ss := run()
	restore()
	for i := range sz {
		if !sameBits(vz[i], sz[i]) || !sameBits(vc[i], sc[i]) {
			t.Fatalf("pair %d: kernel (%v, %v), scalar (%v, %v)", i, vz[i], vc[i], sz[i], sc[i])
		}
	}
	if vs != ss {
		t.Fatalf("stream position diverged: kernel state %x, scalar %x", vs, ss)
	}
	return (ss - s0) * inverse(gamma)
}

func TestPlantedStateInvertsFinalizer(t *testing.T) {
	r := NewRNG(77)
	for i := 0; i < 1000; i++ {
		v, pos := r.Uint64(), 1+r.Intn(2000)
		g := NewRNG(plantedState(pos, v))
		for j := 1; j < pos; j++ {
			g.Uint64()
		}
		if got := g.Uint64(); got != v {
			t.Fatalf("value %d at position %d: got %x, want %x", i, pos, got, v)
		}
	}
}

func TestUniformKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX512)
	r := NewRNG(0x51)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 100, 511, sumBatch, sumBatch + 3} {
		for trial := 0; trial < 50; trial++ {
			if used := uniformsBothPaths(t, r.Uint64(), n); used != uint64(2*n) {
				t.Fatalf("n=%d: consumed %d stream values, want %d", n, used, 2*n)
			}
		}
	}
	// Dense: 1M pairs through the kernel, bit for bit against Float64.
	zr, cs := make([]float64, kernelInputs/10), make([]float64, kernelInputs/10)
	s0 := r.Uint64()
	g := NewRNG(s0)
	if done := uniformsAVX512(zr, cs, &g.state); done != len(zr) {
		t.Fatalf("kernel stopped at pair %d of %d", done, len(zr))
	}
	ref := NewRNG(s0)
	for i := range zr {
		if u1, u2 := ref.Float64(), ref.Float64(); !sameBits(zr[i], u1) || !sameBits(cs[i], u2) {
			t.Fatalf("pair %d: kernel (%v, %v), Float64 (%v, %v)", i, zr[i], cs[i], u1, u2)
		}
	}
	if g.state != ref.state {
		t.Fatal("kernel left the state at a different stream position")
	}
}

// TestUniformKernelPlantedZeros plants a Uint64 below 2^11 — a uniform of
// exactly 0 — as the u1 or the u2 of a chosen draw: in every lane of a
// block, on both sides of a block boundary, at the chunk's last draw and
// in the len%8 tail. A zero u1 must send its block to the scalar loop
// (which redraws it, shifting the rest of the stream by one value); a
// zero u2 is an ordinary uniform the kernel keeps.
func TestUniformKernelPlantedZeros(t *testing.T) {
	requireTier(t, TierAVX512)
	type plant struct {
		n, draw int
		u2      bool
	}
	var plants []plant
	for lane := 0; lane < 8; lane++ {
		plants = append(plants, plant{sumBatch, lane, false}, plant{sumBatch, lane, true})
	}
	for _, d := range []int{7, 8, 15, 16, sumBatch - 8, sumBatch - 1} {
		plants = append(plants, plant{sumBatch, d, false}, plant{sumBatch, d, true})
	}
	plants = append(plants, plant{37, 36, false}, plant{37, 31, false}, plant{37, 33, true}, plant{9, 8, false})
	for _, p := range plants {
		t.Run(fmt.Sprintf("n%d-draw%d-u2=%v", p.n, p.draw, p.u2), func(t *testing.T) {
			pos := 2*p.draw + 1
			if p.u2 {
				pos++
			}
			s0 := plantedState(pos, 0x5a5)
			want := uint64(2 * p.n)
			if !p.u2 {
				want++ // the redraw
			}
			if used := uniformsBothPaths(t, s0, p.n); used != want {
				t.Fatalf("consumed %d stream values, want %d: the plant missed", used, want)
			}

			// The kernel alone stops exactly at the planted u1's block and
			// leaves the state at that block's start.
			r := NewRNG(s0)
			zr, cs := make([]float64, p.n), make([]float64, p.n)
			done := uniformsAVX512(zr, cs, &r.state)
			wantDone := p.n - p.n%8
			if !p.u2 && p.draw < wantDone {
				wantDone = p.draw - p.draw%8
			}
			if done != wantDone {
				t.Fatalf("kernel did %d pairs, want %d", done, wantDone)
			}
			if r.state != s0+uint64(2*done)*gamma {
				t.Fatalf("kernel state does not match the %d pairs it did", done)
			}
		})
	}
}
