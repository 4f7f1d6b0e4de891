package sim

import (
	"math"
	"testing"
)

// The differential tests below hold each kernel to its scalar reference
// bit for bit, over dense random inputs and the edge set where the scalar
// code's selections flip. They need the kernels to run, so they skip where
// the host or build lacks the tier (the scalar path is then the only path
// and the sampler tests cover it).

const kernelInputs = 10_000_000

// requireTier skips unless this host and build run tier t.
func requireTier(t testing.TB, want Tier) {
	t.Helper()
	if hostTier < want {
		t.Skipf("no %v kernels on this host or build (tier %v)", want, hostTier)
	}
}

// forEachTier runs f as one subtest per kernel tier, lowest first, with
// the samplers forced to that tier; tiers above the host's skip.
func forEachTier(t *testing.T, f func(t *testing.T, tr Tier)) {
	for tr := TierScalar; tr <= TierAVX512; tr++ {
		t.Run(tr.String(), func(t *testing.T) {
			requireTier(t, tr)
			defer ForceTier(tr)()
			f(t, tr)
		})
	}
}

// TestKernelDispatch logs the tier this host and build run, so a CI log
// shows whether the differential tests above and below ran or skipped,
// and pins that ForceTier moves the dispatch and puts it back.
func TestKernelDispatch(t *testing.T) {
	t.Logf("sampler kernel tier: %v (scalar < avx2 < avx512)", hostTier)
	if hostTier >= TierAVX512 {
		t.Logf("operating-point kernels (Erlang-B, Pow, lognormal fit): avx512")
	} else {
		t.Logf("operating-point kernels (Erlang-B, Pow, lognormal fit): SKIP, scalar Go below avx512")
	}
	if KernelTier() != hostTier {
		t.Fatalf("KernelTier() = %v, want the probed %v", KernelTier(), hostTier)
	}
	for tr := TierScalar; tr <= hostTier; tr++ {
		restore := ForceTier(tr)
		if tier != tr {
			t.Fatalf("ForceTier(%v) left the tier at %v", tr, tier)
		}
		restore()
		if tier != hostTier {
			t.Fatalf("ForceTier(%v)'s restore left the tier at %v", tr, tier)
		}
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernel runs kernel over in (padded to whole blocks with pad), and
// demands that it accepts every block and reproduces ref on each lane.
func checkKernel(t *testing.T, name string, in []float64, pad float64,
	kernel func(xs []float64) int, ref func(i int, x float64) float64) {
	t.Helper()
	for len(in)%4 != 0 {
		in = append(in, pad)
	}
	got := append([]float64(nil), in...)
	if n := kernel(got); n != len(got) {
		t.Fatalf("%s: kernel rejected the block at %d (%v)", name, n, in[n:n+4])
	}
	for i, x := range in {
		if want := ref(i, x); !sameBits(got[i], want) {
			t.Fatalf("%s(%v) = %x (%v), want %x (%v)", name, x,
				math.Float64bits(got[i]), got[i], math.Float64bits(want), want)
		}
	}
}

// checkPass runs a pass over in with hostile lanes mixed in, once through
// the kernels and once forced scalar, and demands the same bits.
func checkPass(t *testing.T, name string, in []float64, pass func(xs []float64)) {
	t.Helper()
	vec := append([]float64(nil), in...)
	pass(vec)
	restore := ForceTier(TierScalar)
	sca := append([]float64(nil), in...)
	pass(sca)
	restore()
	for i := range in {
		if !sameBits(vec[i], sca[i]) {
			t.Fatalf("%s at %d (input %v): vector %x, scalar %x", name, i, in[i],
				math.Float64bits(vec[i]), math.Float64bits(sca[i]))
		}
	}
}

// neighbours returns x and its two floating-point neighbours.
func neighbours(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
	}
	return out
}

// hostile holds inputs outside the radius and angle kernels' ranges; NaN,
// ±Inf and ±1e300 are outside the exp kernel's too.
var hostile = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -5e-324, 1, 2, 1 << 30, 1e300, -1e300}

func TestRadiusKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX2)
	radius := func(_ int, u float64) float64 { return math.Sqrt(-2 * math.Log(u)) }

	// Edge set: the smallest producible uniform, the top of the range,
	// subnormals, every binade's copy of the f1 <= √2/2 boundary, and
	// powers of two (f1 = 0.5 exactly).
	var edges []float64
	edges = append(edges, neighbours(0x1p-53, 0.5, math.Nextafter(1, 0))...)
	edges = append(edges, 5e-324, 1e-310, math.SmallestNonzeroFloat64*3, 0x1p-1022)
	for e := 0; e <= 1074; e++ {
		edges = append(edges, neighbours(math.Ldexp(math.Sqrt2/2, -e), math.Ldexp(1, -e))...)
	}
	in := edges[:0:0]
	for _, u := range edges {
		if u > 0 && u < 1 {
			in = append(in, u)
		}
	}
	checkKernel(t, "radius", in, 0.5, radiusAVX2, radius)

	// Dense sweeps: the hot-path distribution, then random bit patterns
	// over every exponent in (0, 1).
	r := NewRNG(0x5ad1)
	in = make([]float64, kernelInputs/2)
	for i := range in {
		for in[i] == 0 {
			in[i] = r.Float64()
		}
	}
	checkKernel(t, "radius", in, 0.5, radiusAVX2, radius)
	for i := range in {
		in[i] = 0
		for !(in[i] > 0 && in[i] < 1) {
			in[i] = math.Float64frombits(r.Uint64() & (1<<62 - 1))
		}
	}
	checkKernel(t, "radius", in, 0.5, radiusAVX2, radius)

	// Hostile lanes make the kernel hand the block back.
	in = append(in[:0], edges...)
	in = append(in, hostile...)
	in = append(in, 0, math.Copysign(0, -1))
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	checkPass(t, "radiusPass", in, radiusPass)
}

func TestAngleKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX2)
	r := NewRNG(0xa9)
	// Each lane multiplies a radius by the angle's cosine; the radius is
	// a deterministic function of the lane index.
	rad := func(i int) float64 { return 1 + float64(i%97)/7 }
	angle := func(i int, u float64) float64 { return rad(i) * cos2pi(u) }
	kernel := func(cs []float64) int {
		zr := make([]float64, len(cs))
		for i := range zr {
			zr[i] = rad(i)
		}
		n := angleAVX2(zr, cs)
		copy(cs, zr)
		return n
	}

	// Edge set: octant boundaries and their neighbours, ±0, subnormals
	// and the top of the range.
	in := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 1e-17, math.Nextafter(1, 0)}
	for i := 1; i < 8; i++ {
		in = append(in, neighbours(float64(i)/8)...)
	}
	checkKernel(t, "angle", in, 0.5, kernel, angle)

	in = make([]float64, kernelInputs)
	for i := range in {
		in[i] = r.Float64()
	}
	checkKernel(t, "angle", in, 0.5, kernel, angle)

	// Hostile lanes: the pass falls back to cos2pi, whose own fallback
	// is math.Cos.
	in = append(in[:64], hostile...)
	in = append(in, -0.25, math.Nextafter(0, -1))
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	checkPass(t, "anglePass", in, func(cs []float64) {
		zr := make([]float64, len(cs))
		for i := range zr {
			zr[i] = rad(i)
		}
		anglePass(zr, cs)
		copy(cs, zr)
	})
}

func TestExpKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX2)
	exp := func(_ int, x float64) float64 { return math.Exp(x) }

	// Edge set: ±0, subnormals, and both ends of the range where
	// archExp's exponent k = round(x·log2 e) stays within [-1022, 1023].
	var in []float64
	in = append(in, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310)
	in = append(in, neighbours(-708, -708.39, 708, 709, 709.08, 709.43, 1, -1, 0.5)...)
	// Arguments that round to the boundary exponents themselves.
	for _, k := range []float64{-1022, 1023} {
		lo := (k - 0.5) / math.Log2E
		hi := (k + 0.5) / math.Log2E
		for _, x := range neighbours(lo, hi, k/math.Log2E) {
			if kk := math.RoundToEven(x * math.Log2E); kk >= -1022 && kk <= 1023 {
				in = append(in, x)
			}
		}
	}
	checkKernel(t, "exp", in, 0, expAVX2, exp)

	// Dense sweeps: the samplers' range of arguments, then the whole
	// main-path range.
	r := NewRNG(0xe4)
	in = make([]float64, kernelInputs/2)
	for i := range in {
		in[i] = -12 + 14*r.Float64()
	}
	checkKernel(t, "exp", in, 0, expAVX2, exp)
	for i := range in {
		in[i] = -708 + 1417*r.Float64()
	}
	checkKernel(t, "exp", in, 0, expAVX2, exp)

	// Outside the main path (overflow, underflow to subnormal or zero,
	// non-finite), mixed with in-range lanes.
	in = append(in[:64], hostile...)
	in = append(in, neighbours(-745.2, -745, -720, -708.8, 709.5, 709.78, 710, 800)...)
	r.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	checkPass(t, "expPass", in, expPass)
}

// TestSamplersVectorMatchesScalar holds two successive LognormalDraws
// calls, the second continuing the first's stream, to the same bits and
// the same stream position at every kernel tier the host has as at the
// scalar tier (and the scalar tier to the plain per-draw loop), for
// every path depth from 1 to 9, the depths either side of the fused
// kernel's bound and one beyond the scratch chunk, with draw counts that
// leave partial blocks, len%8 tails and partial chunks.
func TestSamplersVectorMatchesScalar(t *testing.T) {
	type result struct {
		draws, again []float64
		next         uint64
	}
	sample := func(k, n int, mu, sigma []float64, perDraw bool) result {
		r := NewRNG(uint64(1000*k + n))
		res := result{draws: make([]float64, n*k), again: make([]float64, n*k)}
		if perDraw {
			for _, out := range [][]float64{res.draws, res.again} {
				for i := range out {
					s := i % k
					out[i] = math.Exp(mu[s] + sigma[s]*r.NormFloat64())
				}
			}
		} else {
			LognormalDraws(res.draws, mu, sigma, r)
			LognormalDraws(res.again, mu, sigma, r)
		}
		res.next = r.Uint64()
		return res
	}
	forEachTier(t, func(t *testing.T, tr Tier) {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, fusedMaxK, fusedMaxK + 1, sumBatch + 1} {
			for _, n := range []int{1, 3, 5, 7, 9, sumBatch/k + 3, 301} {
				mu := make([]float64, k)
				sigma := make([]float64, k)
				for s := range mu {
					mu[s] = -6 + 0.7*float64(s%9)
					sigma[s] = 0.1 + 0.35*float64(s%4)
				}
				got := sample(k, n, mu, sigma, false)
				var want result
				if tr == TierScalar {
					want = sample(k, n, mu, sigma, true)
				} else {
					restore := ForceTier(TierScalar)
					want = sample(k, n, mu, sigma, false)
					restore()
				}
				for i := range want.draws {
					if !sameBits(got.draws[i], want.draws[i]) {
						t.Fatalf("k=%d n=%d LognormalDraws[%d]: %v, scalar %v", k, n, i, got.draws[i], want.draws[i])
					}
				}
				for i := range want.again {
					if !sameBits(got.again[i], want.again[i]) {
						t.Fatalf("k=%d n=%d second LognormalDraws[%d]: %v, scalar %v", k, n, i, got.again[i], want.again[i])
					}
				}
				if got.next != want.next {
					t.Fatalf("k=%d n=%d: stream position diverged", k, n)
				}
			}
		}
	})
}

// TestFusedKernelMatchesScalar drives the fused route directly over
// hostile uniform pairs, and over stage parameters that push one middle
// stage's exp argument off archExp's main path (overflow, or a subnormal
// or zero result) in a few percent of its draws. Rejected blocks then
// fall mid-row, so the kernel re-enters at a stage other than 0; every
// element must match the scalar tier bit for bit.
func TestFusedKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX512)
	badU1 := []float64{0, math.Copysign(0, -1), 1, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, 1e-310, math.Nextafter(1, 0), 0x1p-53}
	badU2 := []float64{math.Copysign(0, -1), -5e-324, -0.25, 1, 1.5, 1 << 40,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(1, 0), 0.125, 0.375}
	r := NewRNG(0xf05e)
	for _, k := range []int{3, 5, 7} {
		mu := make([]float64, k)
		sigma := make([]float64, k)
		for s := range mu {
			mu[s] = -6 + 0.5*float64(s)
			sigma[s] = 0.1 + 0.2*float64(s)
		}
		mu[k/2], sigma[k/2] = 0, 420
		n := sumBatch / k * k
		u1, u2 := make([]float64, n), make([]float64, n)
		for i := range u1 {
			for u1[i] == 0 {
				u1[i] = r.Float64()
			}
			u2[i] = r.Float64()
		}
		for i := 0; i < 8; i++ {
			u1[r.Intn(n)] = badU1[r.Intn(len(badU1))]
			u2[r.Intn(n)] = badU2[r.Intn(len(badU2))]
		}

		run := func(tr Tier) []float64 {
			defer ForceTier(tr)()
			c := Sampler{mu: mu, sigma: sigma}
			c.init()
			out := make([]float64, n)
			// The pass route uses u1 and u2 as scratch.
			c.lognormals(out, append([]float64(nil), u1...), append([]float64(nil), u2...))
			return out
		}
		got, want := run(TierAVX512), run(TierScalar)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("k=%d element %d (stage %d, u1 %v, u2 %v): fused %x (%v), scalar %x (%v)",
					k, i, i%k, u1[i], u2[i], math.Float64bits(got[i]), got[i],
					math.Float64bits(want[i]), want[i])
			}
		}

		// The inputs must put rejected blocks mid-row with accepted blocks
		// after them, or the re-entry offset went untested.
		c := Sampler{mu: mu, sigma: sigma}
		c.init()
		muPat, sigmaPat := c.muPat[:k+7], c.sigmaPat[:k+7]
		scratch := make([]float64, 8)
		accepted, reentries := 0, 0
		for b := 0; b+8 <= n; b += 8 {
			if lognormalAVX512(scratch, u1[b:], u2[b:], muPat, sigmaPat, b%k) == 8 {
				accepted++
			} else if b+16 <= n && (b+8)%k != 0 &&
				lognormalAVX512(scratch, u1[b+8:], u2[b+8:], muPat, sigmaPat, (b+8)%k) == 8 {
				reentries++
			}
		}
		if accepted == 0 || reentries == 0 {
			t.Fatalf("k=%d: %d blocks accepted, %d mid-row re-entries: the inputs miss the route", k, accepted, reentries)
		}
	}
}

// BenchmarkSampleKernel times LognormalDraws over one 512-element chunk
// (128 draws of a 4-stage path) at each kernel tier.
func BenchmarkSampleKernel(b *testing.B) {
	mu := []float64{-5.2, -4.1, -6, -4.8}
	sigma := []float64{0.3, 0.5, 0.2, 0.4}
	dst := make([]float64, sumBatch)
	for tr := TierScalar; tr <= TierAVX512; tr++ {
		b.Run(tr.String(), func(b *testing.B) {
			requireTier(b, tr)
			defer ForceTier(tr)()
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				LognormalDraws(dst, mu, sigma, r)
			}
		})
	}
}

// BenchmarkUniformKernel times the uniform pass over one 512-pair chunk
// on each path.
func BenchmarkUniformKernel(b *testing.B) {
	zr := make([]float64, sumBatch)
	cs := make([]float64, sumBatch)
	for _, path := range []string{"vector", "scalar"} {
		b.Run(path, func(b *testing.B) {
			if path == "vector" {
				requireTier(b, TierAVX512)
			} else {
				defer ForceTier(TierScalar)()
			}
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				BoxMullerUniforms(zr, cs, r)
			}
		})
	}
}

// TestNormOverKernelMatchesScalar holds the AVX-512 certificate kernel to
// normOver's scalar loop: the same verdict bits for generator uniforms and
// for arbitrary floats in (0, 1) (the ends, powers of two, u2 at the
// cosine's zeros and sign changes), at cutoffs from minCutoff to past any
// normal the stream can produce, over lengths that leave every len%8
// tail. The bound is computed lane by lane with the scalar code's
// roundings, so a u1 or u2 on which it sits exactly at t² must fall the
// same way on both paths.
func TestNormOverKernelMatchesScalar(t *testing.T) {
	requireTier(t, TierAVX512)
	r := NewRNG(0x0e)
	special := []float64{0x1p-53, 0x1p-52, 0.5, 0.25, 0.75, 1 - 0x1p-53, 0x1p-1022, 0.1, 0.9}
	for trial := 0; trial < 4000; trial++ {
		n := r.Intn(sumBatch + 1)
		u1, u2 := make([]float64, n), make([]float64, n)
		for i := range u1 {
			switch r.Intn(4) {
			case 0:
				u1[i], u2[i] = special[r.Intn(len(special))], special[r.Intn(len(special))]
			case 1:
				u1[i], u2[i] = math.Float64frombits(r.Uint64()>>12|0x3F<<56)/2, r.Float64()
			default:
				u1[i], u2[i] = r.Float64(), r.Float64()
				if u1[i] == 0 {
					u1[i] = 0x1p-53
				}
			}
		}
		cut := minCutoff + 9*r.Float64()
		floor, t2 := radiusFloor(cut), cut*cut
		if trial%7 == 0 && n > 0 {
			// A cutoff that one element's bound hits exactly.
			i := r.Intn(n)
			u1[i] = floor / 2
			t2 = normBound2(u1[i], u2[i])
		}
		var got, want [sumBatch / 64]uint64
		normOver(u1, u2, floor, t2, &got)
		restore := ForceTier(TierScalar)
		normOver(u1, u2, floor, t2, &want)
		restore()
		if got != want {
			t.Fatalf("trial %d (n=%d, t=%v): verdicts %x, scalar %x", trial, n, cut, got, want)
		}
	}
}
