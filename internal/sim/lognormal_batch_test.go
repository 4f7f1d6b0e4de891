package sim

import (
	"math"
	"testing"
)

// TestLognormalDrawsMatchesPerDrawLoop pins the matrix-fill sampler to the
// plain per-draw loop the engine's sampling pass replaced: every element
// bit-identical, draw-major stage-minor, and the RNG stream left at the
// same position.
func TestLognormalDrawsMatchesPerDrawLoop(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		for _, n := range []int{1, 5, sumBatch / k, sumBatch/k + 3, 1000} {
			dists := make([]Lognormal, k)
			mu := make([]float64, k)
			sigma := make([]float64, k)
			for s := 0; s < k; s++ {
				dists[s] = NewLognormal(0.01*float64(s+1), 0.2+0.3*float64(s))
				mu[s], sigma[s] = dists[s].LogParams()
			}

			ref := NewRNG(2020).Fork("draws")
			want := make([]float64, n*k)
			for i := 0; i < n; i++ {
				for s := 0; s < k; s++ {
					want[i*k+s] = dists[s].Sample(ref)
				}
			}

			got := make([]float64, n*k)
			rng := NewRNG(2020).Fork("draws")
			LognormalDraws(got, mu, sigma, rng)

			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("k=%d n=%d element %d: got %x want %x", k, n, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if a, b := ref.Uint64(), rng.Uint64(); a != b {
				t.Fatalf("k=%d n=%d: stream position diverged (%x vs %x)", k, n, a, b)
			}
		}
	}
}

// TestLognormalDrawsZeroStages is a no-op that leaves the stream alone.
func TestLognormalDrawsZeroStages(t *testing.T) {
	rng := NewRNG(1)
	before := *rng
	LognormalDraws(nil, nil, nil, rng)
	if *rng != before {
		t.Fatal("zero-stage call advanced the RNG")
	}
}

// TestSamplerDrawsMatchPerDrawLoop pins the path the estimators sample
// through, one kept Sampler drawing every row (DrawsBetween from -Inf to
// +Inf), to the plain per-draw loop: every element bit-identical and the
// stream left at the same position, with the same Sampler carried across
// path depths and draw counts on both sides of a chunk boundary.
func TestSamplerDrawsMatchPerDrawLoop(t *testing.T) {
	var c Sampler
	for _, k := range []int{1, 2, 4, 7} {
		for _, n := range []int{1, 5, sumBatch / k, sumBatch/k + 3, 1000} {
			dists := make([]Lognormal, k)
			mu := make([]float64, k)
			sigma := make([]float64, k)
			for s := 0; s < k; s++ {
				dists[s] = NewLognormal(0.01*float64(s+1), 0.2+0.3*float64(s))
				mu[s], sigma[s] = dists[s].LogParams()
			}

			ref := NewRNG(2020).Fork("batch")
			want := make([]float64, n*k)
			for i := 0; i < n; i++ {
				for s := 0; s < k; s++ {
					want[i*k+s] = dists[s].Sample(ref)
				}
			}

			got := make([]float64, n*k)
			rng := NewRNG(2020).Fork("batch")
			if m := c.DrawsBetween(got, mu, sigma, math.Inf(-1), math.Inf(1), rng); m != n {
				t.Fatalf("k=%d n=%d: computed %d rows, want every row", k, n, m)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("k=%d n=%d element %d: got %x want %x", k, n, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if a, b := ref.Uint64(), rng.Uint64(); a != b {
				t.Fatalf("k=%d n=%d: stream position diverged (%x vs %x)", k, n, a, b)
			}
		}
	}
}

// TestSamplerZeroStages: a kept Sampler's zero-stage call, after a call
// that left its scratch full, computes no rows and leaves the stream
// alone.
func TestSamplerZeroStages(t *testing.T) {
	var c Sampler
	dst := make([]float64, 3*40)
	c.DrawsBetween(dst, []float64{-5, -4, -6}, []float64{0.3, 0.5, 0.2}, math.Inf(-1), math.Inf(1), NewRNG(3))
	rng := NewRNG(1)
	before := *rng
	if m := c.DrawsBetween(dst[:0], nil, nil, math.Inf(-1), math.Inf(1), rng); m != 0 {
		t.Fatalf("zero-stage call computed %d rows, want 0", m)
	}
	if *rng != before {
		t.Fatal("zero-stage call advanced the RNG")
	}
}

// TestLognormalDrawsBadLength panics when dst is not a whole number of
// draws.
func TestLognormalDrawsBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dst not a multiple of the stage count")
		}
	}()
	LognormalDraws(make([]float64, 5), make([]float64, 2), make([]float64, 2), NewRNG(1))
}

// TestLognormalDrawsMismatch panics on uneven parameter arrays.
func TestLognormalDrawsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mu/sigma length mismatch")
		}
	}()
	LognormalDraws(make([]float64, 4), []float64{1}, []float64{1, 2}, NewRNG(1))
}

// TestLognormalDrawsZeroAllocs: the one-shot sampler must not allocate —
// its Sampler scratch stays on the stack.
func TestLognormalDrawsZeroAllocs(t *testing.T) {
	mu := []float64{-3, -3.2, -2.9, -4}
	sigma := []float64{0.3, 0.4, 0.2, 0.5}
	dst := make([]float64, 1000*len(mu))
	rng := NewRNG(7)
	allocs := testing.AllocsPerRun(20, func() {
		LognormalDraws(dst, mu, sigma, rng)
	})
	if allocs != 0 {
		t.Fatalf("LognormalDraws allocates %.1f per op, want 0", allocs)
	}
}

// TestLognormalDrawsMatchesMoments is a statistical oracle for the
// sampler, where every other sampler test is differential: at every
// kernel tier the host has, the sample mean and variance of 2·10⁵ draws
// per stage must match the lognormal's closed forms, mean and (cv·mean)².
// At this count the standard error of the mean is below 0.2% of it and
// that of the variance below 1.1% (the lognormal's excess kurtosis at cv
// 0.8 is ~18); the bounds, 1.5% and 6%, are at least five standard
// errors, at a fixed seed. A wrong Box–Muller angle or radius, or a wrong lognormal
// fit, applied to every tier alike, passes the differential tests but
// not this one.
func TestLognormalDrawsMatchesMoments(t *testing.T) {
	const n = 200000
	dists := []Lognormal{NewLognormal(0.004, 0.3), NewLognormal(1, 0.5), NewLognormal(25, 0.8)}
	mu, sigma := make([]float64, len(dists)), make([]float64, len(dists))
	for s, d := range dists {
		mu[s], sigma[s] = d.LogParams()
	}
	forEachTier(t, func(t *testing.T, tr Tier) {
		vals := make([]float64, n*len(dists))
		LognormalDraws(vals, mu, sigma, NewRNG(2020).Fork("moments"))
		for s, d := range dists {
			var sum, sq float64
			for i := s; i < len(vals); i += len(dists) {
				sum += vals[i]
			}
			mean := sum / n
			for i := s; i < len(vals); i += len(dists) {
				sq += (vals[i] - mean) * (vals[i] - mean)
			}
			variance := sq / (n - 1)
			wantVar := d.CV() * d.CV() * d.Mean() * d.Mean()
			if math.Abs(mean/d.Mean()-1) > 0.015 {
				t.Errorf("stage %d: sample mean %v, closed form %v", s, mean, d.Mean())
			}
			if math.Abs(variance/wantVar-1) > 0.06 {
				t.Errorf("stage %d: sample variance %v, closed form %v", s, variance, wantVar)
			}
		}
	})
}

// TestSubSeedBytesMatchesSubSeed pins SubSeed over a byte buffer to
// SubSeed over the same string, and both to the seeds the FNV-1a label
// hash has always given. Over bytes it allocates nothing: the fleet's
// per-epoch arrival seed depends on it.
func TestSubSeedBytesMatchesSubSeed(t *testing.T) {
	buf := []byte("fleet/arrivals/7")
	if allocs := testing.AllocsPerRun(100, func() { SubSeed(2020, buf) }); allocs != 0 {
		t.Errorf("SubSeed over bytes allocates %.1f per call, want 0", allocs)
	}
	for label, want := range map[string]uint64{
		"":                     0x55c5e55dfb6858d4,
		"fleet/arrivals/0":     0x3935fe1c3b0a98f4,
		"fleet/arrivals/12345": 0x478a046688ba42a7,
	} {
		if got := SubSeed(2020, []byte(label)); got != want {
			t.Errorf("SubSeed(2020, []byte(%q)) = %#x, want %#x", label, got, want)
		}
		if got := SubSeed(2020, label); got != want {
			t.Errorf("SubSeed(2020, %q) = %#x, want %#x", label, got, want)
		}
	}
}
