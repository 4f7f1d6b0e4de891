package sim

import "math"

// sumBatch is the scratch extent (in draws×stages elements) of one
// SumLognormals / LognormalDraws chunk: two float64 arrays of this size
// live on the stack (8 KiB total), small enough to stay in L1 while the
// passes stream over them.
const sumBatch = 512

// SumLognormals fills dst with len(dst) independent path sums over the
// per-stage lognormal parameters mu and sigma (log-space, as returned by
// Lognormal.LogParams):
//
//	dst[i] = Σ_s exp(mu[s] + sigma[s] * z_{i,s})
//
// where z_{i,s} are standard normal draws from r.
//
// The draw order is frozen (see RNG.NormFloat64): draw-major,
// stage-minor — for each path sum i, one normal per stage s in stage
// order — exactly the uniform stream a plain `for each i { for each s {
// dist.Sample(r) } }` loop consumes, and every produced float is
// bit-identical to that loop's. Byte-determinism of the experiment tables
// depends on both properties.
//
// Internally the work is restructured for throughput rather than
// per-draw: uniforms for a chunk of draws are pulled from r in stream
// order into stack scratch, then the radius pass (sqrt of log), the angle
// pass (cos2pi), the exp-argument pass and the exp pass each stream over
// the chunk as a separate loop, and each row is summed last. Splitting
// the expensive kernels into per-kernel passes keeps each loop's call
// target and branch pattern uniform, which is what lets out-of-order
// execution overlap successive calls; the fused per-draw form measures
// ~40% slower on random data. On hosts with AVX2 and FMA the radius,
// angle and exp passes run four lanes at a time, and on hosts with
// AVX-512 the uniforms eight pairs at a time (kernels_amd64.s), with the
// same bits as the scalar passes. Zero heap allocations.
//
// mu and sigma must have equal length; len(mu) == 0 zero-fills dst.
func SumLognormals(dst []float64, mu, sigma []float64, r *RNG) {
	k := len(mu)
	if len(sigma) != k {
		panic("sim: SumLognormals mu/sigma length mismatch")
	}
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if k > sumBatch {
		// Degenerate path depth; keep the frozen order with the plain
		// per-draw loop rather than growing heap scratch.
		for i := range dst {
			t := 0.0
			for s := 0; s < k; s++ {
				t += math.Exp(mu[s] + sigma[s]*r.NormFloat64())
			}
			dst[i] = t
		}
		return
	}
	var zrs, css [sumBatch]float64
	drawsPer := sumBatch / k
	n := len(dst)
	for base := 0; base < n; base += drawsPer {
		m := min(drawsPer, n-base)
		zr := zrs[:m*k]
		normalChunk(zr, css[:m*k], r)
		expArgs(zr, zr, mu, sigma)
		expPass(zr)
		// Accumulate each row left to right, as the per-draw loop does.
		out := dst[base : base+m]
		for d := range out {
			t := 0.0
			for _, v := range zr[d*k : d*k+k] {
				t += v
			}
			out[d] = t
		}
	}
}

// LognormalDraws fills dst with len(dst)/k complete draws over the
// per-stage lognormal parameters mu and sigma (log-space), draw-major and
// stage-minor:
//
//	dst[i*k+s] = exp(mu[s] + sigma[s] * z_{i,s})
//
// where z_{i,s} are standard normal draws from r and k = len(mu). It is
// SumLognormals without the row accumulation: the same frozen uniform
// stream, the same chunked radius/angle/exp passes, but the per-stage
// values are written out individually so the caller can combine them with
// an association other than a left-to-right sum (the engine's latency
// graphs nest chains to the right and take maxima across parallel fan-out,
// so their per-draw combine is not a flat Σ). Every element is
// bit-identical to the plain per-draw loop
// `math.Exp(mu[s] + sigma[s]*r.NormFloat64())` in the same order, and r is
// left at the same stream position. Zero heap allocations.
//
// mu and sigma must have equal length, and len(dst) must be a multiple of
// k; len(mu) == 0 requires len(dst) == 0 and is a no-op.
func LognormalDraws(dst []float64, mu, sigma []float64, r *RNG) {
	k := len(mu)
	if len(sigma) != k {
		panic("sim: LognormalDraws mu/sigma length mismatch")
	}
	if k == 0 {
		if len(dst) != 0 {
			panic("sim: LognormalDraws dst not a multiple of stage count")
		}
		return
	}
	if len(dst)%k != 0 {
		panic("sim: LognormalDraws dst not a multiple of stage count")
	}
	if k > sumBatch {
		// Degenerate path depth; keep the frozen order with the plain
		// per-draw loop rather than growing heap scratch.
		for i := 0; i < len(dst); i += k {
			row := dst[i : i+k]
			for s := range row {
				row[s] = math.Exp(mu[s] + sigma[s]*r.NormFloat64())
			}
		}
		return
	}
	var zrs, css [sumBatch]float64
	drawsPer := sumBatch / k
	n := len(dst) / k
	for base := 0; base < n; base += drawsPer {
		e := min(drawsPer, n-base) * k
		zr := zrs[:e]
		normalChunk(zr, css[:e], r)
		out := dst[base*k : base*k+e]
		expArgs(out, zr, mu, sigma)
		expPass(out)
	}
}

// VectorKernels reports whether the batched samplers run the four-lane
// AVX2+FMA kernels on this host and build (kernels_amd64.go) rather than
// their scalar passes. The output bits are the same either way.
func VectorKernels() bool { return useKernels }

// UniformKernel reports whether the batched samplers draw their uniforms
// with the eight-pair AVX-512 kernel on this host and build rather than
// the scalar loop. The output bits are the same either way.
func UniformKernel() bool { return useUniformKernel }

// normalChunk fills zr with len(zr) standard normals drawn from r in the
// frozen stream order, using cs (len(cs) == len(zr)) as scratch. Every
// variate is bit-identical to r.NormFloat64's.
func normalChunk(zr, cs []float64, r *RNG) {
	// Pass 1: uniforms in the frozen stream order.
	BoxMullerUniforms(zr, cs, r)
	// Pass 2: Box-Muller radius.
	radiusPass(zr)
	// Pass 3: Box-Muller angle, fused with the radius*angle product —
	// after this pass zr holds the normal variates themselves.
	anglePass(zr, cs)
}

// BoxMullerUniforms fills u1 and u2 (len(u2) >= len(u1)) with the uniform
// pairs len(u1) successive r.NormFloat64 calls would consume, in the
// frozen stream order: u1 redrawn while zero, then u2. It is the batched
// samplers' first pass, exported so the pass can be timed on its own. The
// AVX-512 kernel leaves any block that needs a redraw to the scalar loop.
func BoxMullerUniforms(u1, u2 []float64, r *RNG) {
	u2 = u2[:len(u1)]
	vectorize(len(u1), 8, useUniformKernel,
		func(i int) int { return uniformsAVX512(u1[i:], u2[i:], &r.state) },
		func(i, j int) {
			for ; i < j; i++ {
				v := r.Float64()
				for v == 0 {
					v = r.Float64()
				}
				u1[i] = v
				u2[i] = r.Float64()
			}
		})
}

// expArgs writes the exp arguments mu[s] + sigma[s]*norm over rows of
// len(mu) normals into dst (which may alias norms). The grouping matches
// Lognormal.Sample bit-for-bit; it stays in Go so that it compiles exactly
// as the per-draw loop's does. The loop runs stage-outer, striding over
// the rows, so each stage's parameters stay in registers.
func expArgs(dst, norms, mu, sigma []float64) {
	k := len(mu)
	n := len(norms) - len(norms)%k
	dst, norms = dst[:n], norms[:n]
	for s, m := range mu {
		sg := sigma[s]
		for i := s; i < n; i += k {
			dst[i] = m + sg*norms[i]
		}
	}
}

// radiusPass replaces each uniform u in zr by math.Sqrt(-2*math.Log(u)).
func radiusPass(zr []float64) {
	vectorize(len(zr), 4, useKernels, func(i int) int { return radiusAVX2(zr[i:]) },
		func(i, j int) {
			for ; i < j; i++ {
				zr[i] = math.Sqrt(-2 * math.Log(zr[i]))
			}
		})
}

// anglePass multiplies each zr[j] by cos2pi(cs[j]), the same single
// multiplication NormFloat64 performs; len(cs) == len(zr).
func anglePass(zr, cs []float64) {
	vectorize(len(zr), 4, useKernels, func(i int) int { return angleAVX2(zr[i:], cs[i:]) },
		func(i, j int) { angleScalar(zr[i:j], cs[i:j]) })
}

// expPass replaces each x in xs by math.Exp(x).
func expPass(xs []float64) {
	vectorize(len(xs), 4, useKernels, func(i int) int { return expAVX2(xs[i:]) },
		func(i, j int) {
			for ; i < j; i++ {
				xs[i] = math.Exp(xs[i])
			}
		})
}

// vectorize covers elements [0, n) with a kernel of the given block
// width where the host has one (on): kernel(i) handles whole blocks from
// i on and returns how many elements it did, stopping at a block it
// rejects. scalar(i, j) handles elements [i, j): each rejected block, the
// n%lanes tail, and everything on hosts without the kernel. The two paths
// give the same bits, so where the split falls never shows in the output.
func vectorize(n, lanes int, on bool, kernel func(i int) int, scalar func(i, j int)) {
	i := 0
	if on {
		for n-i >= lanes {
			i += kernel(i)
			if n-i >= lanes {
				scalar(i, i+lanes)
				i += lanes
			}
		}
	}
	scalar(i, n)
}

// angleScalar is anglePass without the kernel. Two angles per call (cos2pi2)
// overlap the per-element serial reduction+polynomial chains, which is
// worth ~15% of the pass.
func angleScalar(zr, cs []float64) {
	cs = cs[:len(zr)]
	j := 0
	for ; j+1 < len(cs); j += 2 {
		c0, c1 := cos2pi2(cs[j], cs[j+1])
		zr[j] *= c0
		zr[j+1] *= c1
	}
	if j < len(cs) {
		zr[j] *= cos2pi(cs[j])
	}
}
