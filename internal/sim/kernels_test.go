package sim

import (
	"math"
	"testing"
)

// The differential tests below hold each four-lane kernel to its scalar
// reference bit for bit, over dense random inputs and the edge set where
// the scalar code's selections flip. They need the kernels to run, so they
// skip where the host or build has none (the scalar path is then the
// only path and the sampler tests cover it).

const kernelInputs = 10_000_000

func requireKernels(t testing.TB) {
	t.Helper()
	if !useKernels {
		t.Skip("no AVX2+FMA kernels on this host or build")
	}
}

func requireUniformKernel(t testing.TB) {
	t.Helper()
	if !useUniformKernel {
		t.Skip("no AVX-512 uniform kernel on this host or build")
	}
}

// TestKernelDispatch logs which kernel sets this host and build run, so a
// CI log shows whether the differential tests above and below ran or
// skipped, and pins that ForceScalar turns every kernel off and back on.
func TestKernelDispatch(t *testing.T) {
	t.Logf("AVX2+FMA radius/angle/exp kernels: %v", useKernels)
	t.Logf("AVX-512 uniform kernel: %v", useUniformKernel)
	k, u := useKernels, useUniformKernel
	restore := ForceScalar()
	if useKernels || useUniformKernel {
		t.Fatal("ForceScalar left a kernel on")
	}
	restore()
	if useKernels != k || useUniformKernel != u {
		t.Fatal("ForceScalar's restore did not put the dispatch back")
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
	restore := ForceScalar()
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
	requireKernels(t)
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
	requireKernels(t)
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
	requireKernels(t)
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

// TestSamplersVectorMatchesScalar holds both batched samplers to the same
// bits and the same stream position on the vector and scalar paths, for
// every path depth from 1 to 9, draw counts that leave partial blocks and
// partial chunks, and a depth beyond the scratch chunk.
func TestSamplersVectorMatchesScalar(t *testing.T) {
	if !useKernels && !useUniformKernel {
		t.Skip("no vector kernels on this host or build")
	}
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, sumBatch + 1} {
		for _, n := range []int{1, 3, 5, 7, sumBatch/k + 3, 301} {
			mu := make([]float64, k)
			sigma := make([]float64, k)
			for s := range mu {
				mu[s] = -6 + 0.7*float64(s)
				sigma[s] = 0.1 + 0.35*float64(s%4)
			}
			run := func(scalar bool) (draws, sums []float64, next uint64) {
				if scalar {
					defer ForceScalar()()
				}
				r := NewRNG(uint64(1000*k + n))
				draws = make([]float64, n*k)
				LognormalDraws(draws, mu, sigma, r)
				sums = make([]float64, n)
				SumLognormals(sums, mu, sigma, r)
				return draws, sums, r.Uint64()
			}
			vd, vs, vn := run(false)
			sd, ss, sn := run(true)
			for i := range vd {
				if !sameBits(vd[i], sd[i]) {
					t.Fatalf("k=%d n=%d LognormalDraws[%d]: vector %v, scalar %v", k, n, i, vd[i], sd[i])
				}
			}
			for i := range vs {
				if !sameBits(vs[i], ss[i]) {
					t.Fatalf("k=%d n=%d SumLognormals[%d]: vector %v, scalar %v", k, n, i, vs[i], ss[i])
				}
			}
			if vn != sn {
				t.Fatalf("k=%d n=%d: stream position diverged", k, n)
			}
		}
	}
}

// BenchmarkSampleKernel times LognormalDraws over one 512-element chunk
// (128 draws of a 4-stage path) on each path.
func BenchmarkSampleKernel(b *testing.B) {
	mu := []float64{-5.2, -4.1, -6, -4.8}
	sigma := []float64{0.3, 0.5, 0.2, 0.4}
	dst := make([]float64, sumBatch)
	for _, path := range []string{"vector", "scalar"} {
		b.Run(path, func(b *testing.B) {
			if path == "vector" {
				requireKernels(b)
			} else {
				defer ForceScalar()()
			}
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
				requireUniformKernel(b)
			} else {
				defer ForceScalar()()
			}
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				BoxMullerUniforms(zr, cs, r)
			}
		})
	}
}
