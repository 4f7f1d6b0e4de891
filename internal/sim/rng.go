// Package sim provides the deterministic simulation kernel used by every
// substrate in this repository: virtual time, a seeded splitmix64 random
// number generator, the latency distributions the workload models draw
// from, numerically stable statistics helpers, and the worker-pool
// primitives (ForEach, ForEachErr) that parallel sweeps are built on.
//
// Everything in sim is deterministic under a fixed seed so that experiments
// (and tests) are exactly reproducible.
//
// # Thread safety
//
// The stateless helpers (statistics, distributions with value receivers,
// SubSeed, Jobs) are safe for concurrent use. The stateful type — RNG — is
// NOT safe for concurrent use: each goroutine must own its generator. The supported way to hand randomness to concurrent
// workers is to derive an independent substream per unit of work before (or
// without) sharing: either Fork a child RNG per worker from a parent that a
// single goroutine owns, or compute a per-work-item seed with SubSeed and
// have each worker construct its own NewRNG. Two goroutines must never call
// methods (including Fork) on the same RNG concurrently — Fork reads the
// parent's state, so even "read-only" forking races with any sibling that
// is drawing numbers. See DESIGN.md "Concurrency & determinism".
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. It is not safe for concurrent use; each simulated entity owns
// its own RNG (forked from a parent via Fork) so that adding entities does
// not perturb the random streams of existing ones.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from r, keyed by label so that the
// same entity always receives the same stream regardless of creation order.
//
// Fork reads (but does not advance) the parent's state, so the child's
// stream depends on how many numbers the parent has already drawn. Two
// rules follow for parallel code: fork all substreams from a single
// goroutine before workers start (or give each call site its own fresh
// parent, NewRNG(seed).Fork(label)), and never call Fork on an RNG that
// another goroutine may be using — that is a data race, not merely a
// determinism hazard.
func (r *RNG) Fork(label string) *RNG {
	return &RNG{state: r.state ^ labelHash(label) ^ 0x9e3779b97f4a7c15}
}

// SubSeed returns the seed of the substream that NewRNG(seed).Fork(label)
// would produce, without allocating the intermediate generators. It is the
// preferred way to derive per-work-item seeds for parallel sweeps (one
// label per level, trial or experiment): workers receive plain uint64
// seeds, so no RNG is ever shared, and the resulting streams are
// independent of both worker count and execution order.
func SubSeed(seed uint64, label string) uint64 {
	return seed ^ labelHash(label) ^ 0x9e3779b97f4a7c15
}

// SubSeedBytes is SubSeed for a label assembled in a byte buffer: it
// returns the same seed SubSeed(seed, string(label)) would, without
// requiring the caller to materialize the string. Hot per-epoch loops (the
// fleet's arrival substreams) build the label in a reused buffer and stay
// allocation-free.
func SubSeedBytes(seed uint64, label []byte) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return seed ^ h ^ 0x9e3779b97f4a7c15
}

// labelHash is FNV-1a over the label bytes.
func labelHash(label string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// Reseed resets r to the state NewRNG(seed) would produce. It lets hot
// loops that derive a fresh substream per iteration (the fleet's
// per-epoch arrival batches) reuse one generator instead of allocating a
// new RNG each time.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller; one value per
// call, the pair's second half is discarded to keep the stream simple).
//
// # Frozen draw-order contract
//
// Every experiment table in this repository is pinned byte-identical across
// refactors, so both the uniform-consumption order and the produced bits of
// this function are frozen: one call consumes exactly two Float64 draws
// (u1 first — redrawn while zero — then u2) and returns exactly
//
//	math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
//
// bit-for-bit (the cosine goes through cos2pi, a branch-reduced kernel
// differentially pinned to math.Cos). Batched samplers such as
// SumLognormals re-implement this expression pass-by-pass over many draws
// (four lanes at a time on AVX2+FMA hosts, the uniforms eight pairs at a
// time on AVX-512 hosts, kernels_amd64.s);
// any change here must be mirrored there and will show up as a stdout diff
// in every golden experiment run. See DESIGN.md §9.
func (r *RNG) NormFloat64() float64 {
	// Avoid u1 == 0 which would yield log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * cos2pi(u2)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
