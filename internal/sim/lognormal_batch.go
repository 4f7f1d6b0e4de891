package sim

import (
	"math"
	"math/bits"
)

// sumBatch is the scratch extent (in draws×stages elements) of one
// LognormalDraws chunk: the u2 uniforms live in a float64 array of this
// size in the Sampler, small enough to stay in L1 while the passes stream
// over the chunk.
const sumBatch = 512

// LognormalDraws fills dst with len(dst)/k complete draws over the
// per-stage lognormal parameters mu and sigma (log-space, as returned by
// Lognormal.LogParams), draw-major and stage-minor:
//
//	dst[i*k+s] = exp(mu[s] + sigma[s] * z_{i,s})
//
// where z_{i,s} are standard normal draws from r and k = len(mu).
//
// The draw order is frozen (see RNG.NormFloat64): for each draw i, one
// normal per stage s in stage order — exactly the uniform stream a plain
// per-draw loop `math.Exp(mu[s] + sigma[s]*r.NormFloat64())` consumes —
// and every element is bit-identical to that loop's, with r left at the
// same stream position. Byte-determinism of the experiment tables depends
// on both properties. The caller combines a draw's stage values itself:
// the end-to-end latency of a call graph nests chains to the right and
// takes maxima across parallel fan-out (workload.Plan), so it is not a
// flat Σ.
//
// Internally the work is restructured for throughput rather than
// per-draw: the uniforms for a chunk of draws are pulled from r in stream
// order into dst and the Sampler's u2 scratch, and the chunk's lognormal
// values are computed from them (Sampler.draw). How the values are
// computed depends on the host's kernel tier (kernels_amd64.go): with
// AVX-512, the uniforms come eight pairs at a time and one fused kernel
// turns each eight pairs into eight lognormal values (radius, angle, exp
// argument and exp), for paths of at most fusedMaxK stages; with AVX2 and
// FMA, the radius, angle and exp passes each stream over the chunk four
// lanes at a time, with the exp arguments in between computed in Go;
// elsewhere the same passes run scalar. Every tier gives the same bits.
// Zero heap allocations.
//
// mu and sigma must have equal length, and len(dst) must be a multiple of
// k; len(mu) == 0 requires len(dst) == 0 and is a no-op. Callers that
// sample repeatedly keep a Sampler and call DrawsBetween from a cutoff
// below minCutoff to +Inf instead: the same values, without zeroing the
// sampler's scratch on every call.
func LognormalDraws(dst []float64, mu, sigma []float64, r *RNG) {
	c := Sampler{mu: mu, sigma: sigma}
	c.draws(dst, r)
}

// DrawsBetween consumes the uniforms of the len(dst)/k draws
// LognormalDraws would make from r, in the same order, but computes only
// the rows the cutoff hi certifies and the cutoff lo does not (normOver):
// a certified row has every stage normal at most the cutoff. The
// computed rows' values, each bit-identical to LognormalDraws' value for
// that element, are packed into the front of dst in row order, and
// DrawsBetween returns how many rows that is. A +Inf cutoff certifies
// every row; one below minCutoff certifies none, and neither does any
// finite cutoff on a path of more than 64 stages. A cutoff certifies
// every row a smaller one does.
//
// So with hi = +Inf, DrawsBetween computes the rows that can have a
// normal above lo, and leaves r where LognormalDraws would; the lazy
// sampling pass draws a tick so (all of it when lo certifies nothing). A
// replay from the position that call started from, with the same
// parameters, hi = that lo and a smaller lo, computes the rows it skipped
// that can have a normal above the smaller lo; lo below minCutoff gives
// all of them.
func (c *Sampler) DrawsBetween(dst []float64, mu, sigma []float64, lo, hi float64, r *RNG) int {
	c.mu, c.sigma = mu, sigma
	return c.rows(dst, lo, hi, r)
}

// check panics unless c.mu and c.sigma have equal length and n is a whole
// number of rows.
func (c *Sampler) check(n int) {
	k := len(c.mu)
	if len(c.sigma) != k {
		panic("sim: lognormal draws mu/sigma length mismatch")
	}
	if (k == 0 && n != 0) || (k != 0 && n%k != 0) {
		panic("sim: lognormal draws dst not a multiple of stage count")
	}
}

func (c *Sampler) draws(dst []float64, r *RNG) {
	c.check(len(dst))
	k := len(c.mu)
	if k == 0 {
		return
	}
	if k > sumBatch {
		// Degenerate path depth; keep the frozen order with the plain
		// per-draw loop rather than growing heap scratch.
		for i := 0; i < len(dst); i += k {
			row := dst[i : i+k]
			for s := range row {
				row[s] = math.Exp(c.mu[s] + c.sigma[s]*r.NormFloat64())
			}
		}
		return
	}
	c.init()
	drawsPer := c.rowsPerChunk()
	n := len(dst) / k
	for base := 0; base < n; base += drawsPer {
		e := min(drawsPer, n-base) * k
		c.draw(dst[base*k:base*k+e], r)
	}
}

// rows is DrawsBetween: the rows that hi certifies and lo does not. Chunk
// by chunk, it draws the uniforms into dst and the u2 scratch, marks the
// rows each finite cutoff leaves over it (normOver), moves the uniform
// pairs of the rows it keeps down to the end of the rows kept so far, and
// computes the kept elements with the chunk routine. A row moves only
// down, never over a row still to be read. The verdicts are bits, so the
// loops after normOver visit only the marked elements and the kept rows.
func (c *Sampler) rows(dst []float64, lo, hi float64, r *RNG) int {
	c.check(len(dst))
	k := len(c.mu)
	if k == 0 {
		return 0
	}
	n := len(dst) / k
	all := math.IsInf(hi, 1) // hi certifies every row
	if k > 64 {
		// More stages than a verdict word: only +Inf certifies. (The
		// draws still consume the stream when hi is +Inf.)
		if all {
			c.draws(dst, r)
			if !math.IsInf(lo, 1) {
				return n
			}
		}
		return 0
	}
	if all && !(lo >= minCutoff) {
		c.draws(dst, r)
		return n
	}
	if !(hi >= minCutoff) {
		return 0
	}
	recip := 1<<20/k + 1 // el*recip>>20 == el/k for el < sumBatch, k <= 64
	c.init()
	drawsPer := c.rowsPerChunk()
	out := 0 // elements computed so far
	for base := 0; base < n; base += drawsPer {
		rows := min(drawsPer, n-base)
		e := rows * k
		u1, u2 := dst[base*k:base*k+e], c.u2[:e]
		BoxMullerUniforms(u1, u2, r)
		// keep[w] bit i: row 64w+i is kept. The rows lo leaves over
		// (all of them when lo certifies nothing), less those hi does.
		var keep [sumBatch / 64]uint64
		if lo >= minCutoff {
			c.markOver(&keep, u1, u2, lo, recip)
		} else {
			for w := 0; w<<6 < rows; w++ {
				keep[w] = ^uint64(0)
			}
		}
		if !all {
			var hiOver [sumBatch / 64]uint64
			c.markOver(&hiOver, u1, u2, hi, recip)
			for w := range keep {
				keep[w] &^= hiOver[w]
			}
		}
		m := 0 // elements kept in this chunk
		for w := 0; w<<6 < rows; w++ {
			word := keep[w]
			if left := rows - w<<6; left < 64 {
				word &= 1<<left - 1
			}
			for ; word != 0; word &= word - 1 {
				from := (w<<6 + bits.TrailingZeros64(word)) * k
				copy(dst[out+m:out+m+k], u1[from:from+k])
				copy(u2[m:m+k], u2[from:from+k])
				m += k
			}
		}
		// Pad the kept elements to whole 8-lane blocks with placeholder
		// pairs where the chunk's consumed slots leave room, so that no
		// kept element takes the scalar tail; the padding's values are
		// never read.
		pad := min(-m&7, base*k+e-out-m, sumBatch-m)
		for i := m; i < m+pad; i++ {
			dst[out+i], c.u2[i] = 0.5, 0.5
		}
		c.lognormals(dst[out:out+m+pad], dst[out:out+m+pad], c.u2[:m+pad])
		out += m
	}
	return out / k
}

// markOver sets the bit of every row (len(u1)/k of them) that has an
// element the cutoff t leaves over it; recip is rows' reciprocal of k.
func (c *Sampler) markOver(rows *[sumBatch / 64]uint64, u1, u2 []float64, t float64, recip int) {
	var over [sumBatch / 64]uint64
	normOver(u1, u2, radiusFloor(t), t*t, &over)
	for w, word := range over {
		for ; word != 0; word &= word - 1 {
			d := (w<<6 + bits.TrailingZeros64(word)) * recip >> 20
			rows[d>>6] |= 1 << (d & 63)
		}
	}
}

// normOver sets bit i%64 of over[i/64] for each element i (len(u1) <=
// sumBatch) that the cutoff's certificate leaves over it, and clears the
// rest. The certificate has two tiers. A u1 at or above radiusFloor(t)
// gives a radius, and so a normal, of at most t: one compare per element,
// which ~90% of the engine's elements pass. Below the floor, the element
// is over when normBound2 exceeds t² (t2). On AVX-512 hosts a kernel
// computes the verdicts of whole 8-pair blocks, bound and all (the
// bound's bits are normBound2's); the scalar loop collects the first
// tier's verdicts as bits, 64 elements to a word, without a
// data-dependent branch, and bounds only the elements below the floor.
// Positive floats order as their bits do, so each compare is an integer
// subtraction whose borrow is the verdict. The kernel pays for itself: on
// a 2-vCPU AVX-512 Xeon, SampleFilter runs ~40% and the engine's sample
// pass ~30% faster with it than with the scalar loop alone.
func normOver(u1, u2 []float64, floor, t2 float64, over *[sumBatch / 64]uint64) {
	*over = [sumBatch / 64]uint64{}
	i := 0
	if tier >= TierAVX512 {
		i = normOverAVX512(u1, u2, floor, t2, over)
	}
	fb, tb := math.Float64bits(floor), math.Float64bits(t2)
	for i < len(u1) {
		w := i >> 6
		end := min(len(u1), w<<6+64)
		var low uint64
		for j := i; j < end; j++ {
			low |= (math.Float64bits(u1[j]) - fb) >> 63 << (uint(j) & 63)
		}
		for b := low; b != 0; b &= b - 1 {
			el := w<<6 + bits.TrailingZeros64(b)
			low &^= (math.Float64bits(normBound2(u1[el], u2[el])) - tb - 1) >> 63 << (uint(el) & 63)
		}
		over[w] |= low
		i = end
	}
}

// minCutoff is the smallest cutoff the samplers certify: radiusFloor's
// margin covers the rounding of a radius of at least 1/16.
const minCutoff = 0x1p-4

// radiusFloor returns the least u1 whose Box–Muller radius, as
// NormFloat64 computes it, is certified at most t (t >= minCutoff): u1 >=
// exp(-t²·(1-2⁻³⁰)/2) gives -2·ln u1 <= t² less a relative 2⁻³⁰, which
// the rounding of this exp, the radius' log and square root and the
// product with a cosine of at most 1 cannot take back.
func radiusFloor(t float64) float64 {
	return math.Exp(-0.5 * t * t * (1 - 0x1p-30))
}

// normBound2 returns an upper bound on max(z, 0)² for the Box–Muller
// normal z = math.Sqrt(-2*math.Log(u1)) * cos2pi(u2) of a uniform pair
// (u1 a normal float64 in (0, 1), u2 in [0, 1)), with no log, cos or
// square root:
//
//   - -2·ln u1 = 2·ln 2·(-e - log2 m) for u1 = m·2^e, m in [1, 2). Since
//     log2 m >= (m-1)·(1 + (2-m)/4) on [1, 2], -2·ln u1 is at most
//     2·ln 2·((-e-1) + (2-m)·(1 - (m-1)/4)), a sum of non-negative terms
//     read off the exponent and mantissa bits without cancellation.
//   - cos x <= 1 - x²/2 + x⁴/24 for every real x; at x = 2π·w, w =
//     1/2 - |u2 - 1/2| (exact, and without a branch, for the generator's
//     u2), that bounds cos(2π·u2) from above, and it is non-negative
//     wherever the cosine is.
//
// Where the cosine is negative z <= 0, and the product of the bounds is
// non-negative, so it bounds max(z, 0)² everywhere. The factor 1 + 2⁻⁴⁰
// covers the rounding of z's own computation and of this one, FMA
// contraction included, at the pairs where the bounds are tight (m = 1,
// u2 = 0). FuzzNormBound holds it to the computed z.
func normBound2(u1, u2 float64) float64 {
	const (
		c2    = 2 * math.Pi * math.Pi                         // (2π)²/2
		c4    = 2 * math.Pi * math.Pi * math.Pi * math.Pi / 3 // (2π)⁴/24
		scale = 2 * math.Ln2 * (1 + 0x1p-40)
	)
	b := math.Float64bits(u1)
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	lg := float64(1022-int64(b>>52)) + (2-m)*(1-0.25*(m-1))
	w := 0.5 - math.Abs(u2-0.5)
	w2 := w * w
	cs := 1 - w2*(c2-c4*w2)
	return lg * cs * cs * scale
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
	// passes. It also runs the operating-point kernels (oppoint.go).
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

// A Sampler is the batched samplers' working state: the stage parameters
// of the call in progress, the stage patterns the fused kernel reads its
// exp arguments from (muPat[t] = mu[t%k], so the eight lanes of a block
// that starts at stage s read muPat[s:s+8]) and the scratch for one
// chunk's u2 uniforms (the u1 uniforms go to the chunk's output, which
// the values then overwrite). LognormalDraws builds one per call; callers
// that sample repeatedly keep one, so that a call does not zero its 5 KB
// again. The zero value is ready to use; it is not safe for
// concurrent use.
type Sampler struct {
	mu, sigma       []float64
	fused           bool
	muPat, sigmaPat [fusedMaxK + 7]float64
	u2              [sumBatch]float64
}

// init picks the route for c.mu and c.sigma and, on the fused route,
// fills the stage patterns. (LognormalDraws sets the parameters in a
// composite literal: stored through the receiver, they would escape.)
func (c *Sampler) init() {
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
func (c *Sampler) rowsPerChunk() int {
	rows := sumBatch / len(c.mu)
	if rows >= 8 {
		rows &^= 7
	}
	return rows
}

// draw fills out (whole rows, len(out) <= sumBatch) with the next
// len(out) lognormal values in the frozen stream order.
func (c *Sampler) draw(out []float64, r *RNG) {
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
func (c *Sampler) lognormals(out, u1, u2 []float64) {
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
func (c *Sampler) passes(out, u1, u2 []float64, s0 int) {
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
