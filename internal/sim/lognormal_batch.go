package sim

import "math"

// sumBatch is the scratch extent (in draws×stages elements) of one
// SumLognormals / LognormalDraws chunk: the u2 uniforms (and, for
// SumLognormals, the values) live in float64 arrays of this size on the
// stack, small enough to stay in L1 while the passes stream over them.
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
// per-draw: the uniforms for a chunk of draws are pulled from r in stream
// order into stack scratch, the chunk's lognormal values are computed from
// them (chunkSampler.draw), and each row is summed last, left to right.
// How the values are computed depends on the host's kernel tier
// (kernels_amd64.go): with AVX-512, the uniforms come eight pairs at a
// time and one fused kernel turns each eight pairs into eight lognormal
// values (radius, angle, exp argument and exp), for paths of at most
// fusedMaxK stages; with AVX2 and FMA, the radius, angle and exp passes
// each stream over the chunk four lanes at a time, with the exp arguments
// in between computed in Go; elsewhere the same passes run scalar. Every
// tier gives the same bits. Zero heap allocations.
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
	cs := chunkSampler{mu: mu, sigma: sigma}
	cs.init()
	var vals [sumBatch]float64
	drawsPer := cs.rowsPerChunk()
	n := len(dst)
	for base := 0; base < n; base += drawsPer {
		m := min(drawsPer, n-base)
		row := vals[:m*k]
		cs.draw(row, r)
		// Accumulate each row left to right, as the per-draw loop does.
		out := dst[base : base+m]
		for d := range out {
			t := 0.0
			for _, v := range row[d*k : d*k+k] {
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
// stream and the same chunk routine at the same kernel tier, but the
// per-stage values are written out individually so the caller can combine
// them with an association other than a left-to-right sum (the engine's
// latency graphs nest chains to the right and take maxima across parallel
// fan-out, so their per-draw combine is not a flat Σ). Every element is
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
	cs := chunkSampler{mu: mu, sigma: sigma}
	cs.init()
	drawsPer := cs.rowsPerChunk()
	n := len(dst) / k
	for base := 0; base < n; base += drawsPer {
		e := min(drawsPer, n-base) * k
		cs.draw(dst[base*k:base*k+e], r)
	}
}

// Tier is a level of the batched samplers' vector kernels. Each tier adds
// to the one below it, and every tier gives the same bits.
type Tier uint8

const (
	// TierScalar runs every pass in Go: the reference and the fallback.
	TierScalar Tier = iota
	// TierAVX2 runs the radius, angle and exp passes four lanes at a
	// time (AVX2+FMA); the uniforms stay scalar.
	TierAVX2
	// TierAVX512 draws the uniforms eight pairs at a time and turns them
	// into lognormal values with one fused kernel (AVX-512F and DQ), for
	// paths of at most fusedMaxK stages; deeper paths take the AVX2
	// passes.
	TierAVX512
)

func (t Tier) String() string { return [...]string{"scalar", "avx2", "avx512"}[t] }

// KernelTier reports the kernel tier the batched samplers run on this host
// and build, chosen once at start-up (kernels_amd64.go).
func KernelTier() Tier { return tier }

// fusedMaxK bounds the path depth the fused kernel takes: its stage
// patterns hold k+7 values each on the stack. Shipped services have 2–4
// stages; deeper paths take the per-kernel passes.
const fusedMaxK = 64

// chunkSampler is one LognormalDraws or SumLognormals call's state: the
// stage parameters, the scratch for one chunk's u2 uniforms (the u1
// uniforms go to the chunk's output, which the values then overwrite),
// and, on the fused route, the stage patterns the fused kernel reads its
// exp arguments from (muPat[t] = mu[t%k], so the eight lanes of a block
// that starts at stage s read muPat[s:s+8]).
type chunkSampler struct {
	mu, sigma       []float64
	fused           bool
	muPat, sigmaPat [fusedMaxK + 7]float64
	u2              [sumBatch]float64
}

// init picks the route for c.mu and c.sigma and, on the fused route,
// fills the stage patterns. (The parameters are set by the caller's
// composite literal: stored through the receiver, they would escape.)
func (c *chunkSampler) init() {
	k := len(c.mu)
	c.fused = tier >= TierAVX512 && k <= fusedMaxK
	if c.fused {
		for t := 0; t < k+7; t += k {
			copy(c.muPat[t:k+7], c.mu)
			copy(c.sigmaPat[t:k+7], c.sigma)
		}
	}
}

// rowsPerChunk is the number of draws one chunk holds: as many whole rows
// as fit in sumBatch elements, rounded down to a multiple of 8 where that
// leaves any, so that every chunk but the last is whole 8-lane blocks.
func (c *chunkSampler) rowsPerChunk() int {
	rows := sumBatch / len(c.mu)
	if rows >= 8 {
		rows &^= 7
	}
	return rows
}

// draw fills out (whole rows, len(out) <= sumBatch) with the next
// len(out) lognormal values in the frozen stream order.
func (c *chunkSampler) draw(out []float64, r *RNG) {
	u2 := c.u2[:len(out)]
	BoxMullerUniforms(out, u2, r)
	c.lognormals(out, out, u2)
}

// lognormals writes out[i] = exp(mu[s] + sigma[s]*z_i), s = i%k, where z_i
// is the Box-Muller normal of the uniform pair (u1[i], u2[i]); out may
// alias u1, which is scratch on either route. On the fused route the
// kernel does eight elements per block, and each block it rejects, plus
// the len%8 tail, takes the pass route (so that even NaN payloads match
// the scalar tier); the kernel re-enters after it at stage (i+8)%k.
func (c *chunkSampler) lognormals(out, u1, u2 []float64) {
	if !c.fused {
		c.passes(out, u1, u2, 0)
		return
	}
	k := len(c.mu)
	muPat, sigmaPat := c.muPat[:k+7], c.sigmaPat[:k+7]
	vectorize(len(out), 8, true,
		func(i int) int { return lognormalAVX512(out[i:], u1[i:], u2[i:], muPat, sigmaPat, i%k) },
		func(i, j int) { c.passes(out[i:j], u1[i:j], u2[i:j], i%k) })
}

// passes is lognormals without the fused kernel, for elements of which
// the first is of stage s0: the radius, angle, exp-argument and exp
// passes, each streaming over all of them.
func (c *chunkSampler) passes(out, u1, u2 []float64, s0 int) {
	radiusPass(u1)
	anglePass(u1, u2)
	expArgs(out, u1, c.mu, c.sigma, s0)
	expPass(out)
}

// BoxMullerUniforms fills u1 and u2 (len(u2) >= len(u1)) with the uniform
// pairs len(u1) successive r.NormFloat64 calls would consume, in the
// frozen stream order: u1 redrawn while zero, then u2. It is the batched
// samplers' first pass, exported so the pass can be timed on its own. The
// AVX-512 kernel leaves any block that needs a redraw to the scalar loop.
func BoxMullerUniforms(u1, u2 []float64, r *RNG) {
	u2 = u2[:len(u1)]
	vectorize(len(u1), 8, tier >= TierAVX512,
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

// expArgs writes the exp arguments mu[s] + sigma[s]*norms[i] into dst
// (which may alias norms), where element i is of stage s = (s0+i) mod
// len(mu). The grouping matches Lognormal.Sample bit-for-bit; it stays in
// Go so that it compiles exactly as the per-draw loop's does. The loop
// runs stage-outer, striding over the rows, so each stage's parameters
// stay in registers.
func expArgs(dst, norms, mu, sigma []float64, s0 int) {
	k := len(mu)
	dst = dst[:len(norms)]
	for s, m := range mu {
		sg := sigma[s]
		for i := (s - s0%k + k) % k; i < len(norms); i += k {
			dst[i] = m + sg*norms[i]
		}
	}
}

// radiusPass replaces each uniform u in zr by math.Sqrt(-2*math.Log(u)).
func radiusPass(zr []float64) {
	vectorize(len(zr), 4, tier >= TierAVX2, func(i int) int { return radiusAVX2(zr[i:]) },
		func(i, j int) {
			for ; i < j; i++ {
				zr[i] = math.Sqrt(-2 * math.Log(zr[i]))
			}
		})
}

// anglePass multiplies each zr[j] by cos2pi(cs[j]), the same single
// multiplication NormFloat64 performs; len(cs) == len(zr).
func anglePass(zr, cs []float64) {
	vectorize(len(zr), 4, tier >= TierAVX2, func(i int) int { return angleAVX2(zr[i:], cs[i:]) },
		func(i, j int) { angleScalar(zr[i:j], cs[i:j]) })
}

// expPass replaces each x in xs by math.Exp(x).
func expPass(xs []float64) {
	vectorize(len(xs), 4, tier >= TierAVX2, func(i int) int { return expAVX2(xs[i:]) },
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
