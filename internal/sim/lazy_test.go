package sim

import (
	"fmt"
	"math"
	"testing"
)

// FuzzNormBound holds the lazy samplers' two-tier certificate to the
// normal it bounds. For every uniform pair, math.Sqrt(normBound2(u1, u2))
// is at least the z that RNG.NormFloat64 computes from it; and for the
// cutoff t = minCutoff + c/1024, every u1 at or above radiusFloor(t) gives
// a z of at most t. Each uint64 operand maps to a uniform as the generator
// does (the top 53 bits over 2^53; a zero u1 is redrawn, so it is
// skipped), and the u1 operand is also read as a raw float64 whenever
// that is a normal number in (0, 1). The floor itself, the next float up
// and the fuzzed u1 moved above the floor are checked at u2 = 0, where the
// cosine is 1. The seeds put u1 at 2^-53 and one ulp below 1, where the
// log bound is tight or the radius is tiny, and u2 at 0, 1/4, 1/2 and one
// ulp below 1, where the cosine is 1, 0, -1 and 1 again.
func FuzzNormBound(f *testing.F) {
	const (
		least = uint64(1) << 11            // u = 2^-53
		top   = uint64(1<<53-1) << 11      // u = 1 - 2^-53
		quart = uint64(1) << 51 << 11      // u = 1/4
		half  = uint64(1) << 52 << 11      // u = 1/2
		pow2  = uint64(1) << 50 << 11      // u = 1/8, a power of two
		mid   = uint64(0x5555555555555555) // a random-looking pair
	)
	for i, u1 := range []uint64{least, top, pow2, mid} {
		for j, u2 := range []uint64{0, quart, half, top, mid} {
			f.Add(u1, u2, uint16(i*700+j*300))
		}
	}
	f.Fuzz(func(t *testing.T, a, b uint64, c uint16) {
		u2 := float64(b>>11) / (1 << 53)
		check := func(u1 float64) {
			z := math.Sqrt(-2*math.Log(u1)) * cos2pi(u2)
			if bound := normBound2(u1, u2); !(math.Sqrt(bound) >= z) {
				t.Fatalf("u1 %v (%x), u2 %v (%x): bound² %v below z %v",
					u1, math.Float64bits(u1), u2, math.Float64bits(u2), bound, z)
			}
		}
		u1 := float64(a>>11) / (1 << 53)
		if u1 != 0 {
			check(u1)
		}
		if raw := math.Float64frombits(a); raw >= 0x1p-1022 && raw < 1 {
			check(raw)
		}

		cut := minCutoff + float64(c)/1024
		floor := radiusFloor(cut)
		for _, v := range []float64{floor, math.Nextafter(floor, 1), floor + (1-floor)*u1} {
			if v >= floor && v < 1 {
				if z := math.Sqrt(-2 * math.Log(v)); z > cut {
					t.Fatalf("t %v: u1 %v at or above the floor %v has radius %v", cut, v, floor, z)
				}
			}
		}
	})
}

// TestNormBoundTightPairs checks the certificate where its bounds are
// tight or nearly so, which random inputs seldom hit: u1 every power of
// two the generator can produce (m = 1, where the log bound is exact) and
// its neighbours, against u2 at and next to 0, 1/4, 1/2 and 1.
func TestNormBoundTightPairs(t *testing.T) {
	var u2s []float64
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1 - 0x1p-53} {
		for _, v := range []float64{c, c + 0x1p-53, c - 0x1p-53} {
			if v >= 0 && v < 1 {
				u2s = append(u2s, v)
			}
		}
	}
	for k := 1; k <= 53; k++ {
		p := math.Ldexp(1, -k)
		for _, u1 := range []float64{p, p + 0x1p-53, p - 0x1p-53} {
			if !(u1 > 0 && u1 < 1) {
				continue
			}
			for _, u2 := range u2s {
				z := math.Sqrt(-2*math.Log(u1)) * cos2pi(u2)
				if bound := normBound2(u1, u2); !(math.Sqrt(bound) >= z) {
					t.Fatalf("u1 %v, u2 %v: bound² %v below z %v", u1, u2, bound, z)
				}
			}
		}
	}
}

// TestDrawsBetweenPartition holds the lazy sampler to LognormalDraws
// (Draws below): from the same stream position, DrawsBetween computes the
// rows one cutoff certifies and another does not, each row with Draws'
// bits and in row order; up to a +Inf cutoff it leaves the stream where
// Draws does; a row is certified exactly when the two tiers say so; and
// every element of a certified row has its normal at most the cutoff.
// Cutoffs below minCutoff (or NaN) certify nothing, +Inf certifies every
// row, and no finite cutoff certifies a row of more than 64 stages. Each
// shape runs at every tier the host has, and once from a state whose
// stream holds a zero u1 mid-way (a redraw, which the replay reproduces).
func TestDrawsBetweenPartition(t *testing.T) {
	for tr := TierScalar; tr <= hostTier; tr++ {
		restore := ForceTier(tr)
		for _, k := range []int{1, 2, 3, 5, 7, 13, 64, 65} {
			for _, n := range []int{1, 9, 80, 300} {
				if k > 8 && n > 9 {
					continue
				}
				for _, seed := range []uint64{uint64(31*k + n), plantedState(2*(n*k/2)+1, 0x5a5)} {
					checkPartition(t, tr, k, n, seed)
				}
			}
		}
		restore()
	}
}

// checkPartition runs TestDrawsBetweenPartition's checks for one
// tier, path depth, row count and stream state.
func checkPartition(t *testing.T, tr Tier, k, n int, seed uint64) {
	t.Helper()
	cutoffs := []float64{math.NaN(), -1, 0, minCutoff / 2, minCutoff, 0.5, 1.5, 2.33, 3, math.Inf(1)}
	mu, sigma := make([]float64, k), make([]float64, k)
	for s := range mu {
		mu[s], sigma[s] = -5+0.3*float64(s), 0.2+0.1*float64(s%4)
	}
	want := make([]float64, n*k)
	ref := NewRNG(seed)
	var c Sampler
	LognormalDraws(want, mu, sigma, ref)

	// The reference uniforms and normals, pair by pair.
	u := NewRNG(seed)
	u1s, bound2, z := make([]float64, n*k), make([]float64, n*k), make([]float64, n*k)
	for i := range z {
		u1 := u.Float64()
		for u1 == 0 {
			u1 = u.Float64()
		}
		u2 := u.Float64()
		u1s[i], bound2[i] = u1, normBound2(u1, u2)
		z[i] = math.Sqrt(-2*math.Log(u1)) * cos2pi(u2)
	}

	// certified reports whether the cutoff certifies row d: every u1 at
	// least the radius floor, or every bound at most t².
	certified := func(d int, t float64) bool {
		if math.IsInf(t, 1) {
			return true
		}
		if !(t >= minCutoff) || k > 64 {
			return false
		}
		for i := d * k; i < d*k+k; i++ {
			if u1s[i] < radiusFloor(t) && bound2[i] > t*t {
				return false
			}
		}
		return true
	}
	// check holds got (nr rows) to the rows of Draws that keep selects.
	check := func(what string, got []float64, nr int, keep func(d int) bool) {
		t.Helper()
		j := 0
		for d := 0; d < n; d++ {
			if !keep(d) {
				continue
			}
			if j == nr {
				t.Fatalf("%v k=%d n=%d %s: %d rows, row %d missing", tr, k, n, what, nr, d)
			}
			for s := 0; s < k; s++ {
				if g, w := got[j*k+s], want[d*k+s]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v k=%d n=%d %s: row %d stage %d: %v, Draws %v", tr, k, n, what, d, s, g, w)
				}
			}
			j++
		}
		if j != nr {
			t.Fatalf("%v k=%d n=%d %s: %d rows, want %d", tr, k, n, what, nr, j)
		}
	}

	got := make([]float64, n*k)
	for _, cut := range cutoffs {
		r := NewRNG(seed)
		na := c.DrawsBetween(got, mu, sigma, cut, math.Inf(1), r)
		if g, w := r.State(), ref.State(); g != w {
			t.Fatalf("%v k=%d n=%d t=%v: DrawsBetween up to +Inf left the stream at %x, Draws at %x", tr, k, n, cut, g, w)
		}
		check(fmt.Sprintf("above %v", cut), got, na, func(d int) bool { return !certified(d, cut) })
		for d := 0; d < n; d++ {
			for _, v := range z[d*k : d*k+k] {
				if certified(d, cut) && v > cut {
					t.Fatalf("%v k=%d n=%d t=%v row %d: certified with normal %v", tr, k, n, cut, d, v)
				}
			}
		}
		for _, lo := range cutoffs {
			nb := c.DrawsBetween(got, mu, sigma, lo, cut, NewRNG(seed))
			check(fmt.Sprintf("between %v and %v", lo, cut), got, nb,
				func(d int) bool { return certified(d, cut) && !certified(d, lo) })
		}
	}
}

// TestSamplerZeroAllocs: a kept Sampler's calls allocate nothing.
func TestSamplerZeroAllocs(t *testing.T) {
	var c Sampler
	mu, sigma := []float64{-5, -4.5, -6}, []float64{0.3, 0.5, 0.2}
	dst := make([]float64, 80*3)
	r := NewRNG(4)
	if allocs := testing.AllocsPerRun(50, func() {
		c.DrawsBetween(dst, mu, sigma, 0, math.Inf(1), r)
		c.DrawsBetween(dst, mu, sigma, 2, math.Inf(1), r)
		c.DrawsBetween(dst, mu, sigma, 1, 2, r)
	}); allocs != 0 {
		t.Fatalf("Sampler allocates %.1f per call set, want 0", allocs)
	}
}
