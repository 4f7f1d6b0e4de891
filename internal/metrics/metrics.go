// Package metrics implements the measurement side of the evaluation:
// sliding-window tail-latency tracking (the per-second p99 the paper's
// controllers and SLA definition use), utilization accounting, and the
// EMU (effective machine utilization) throughput metric of §5.1.
//
// TailTracker is the hot path. Every engine tick adds SamplesPerTick
// samples at one timestamp; once a second the engine records the window
// p99, and every control period the controller reads it again. Writes
// are O(1) ring-slot stores, and expired samples are dropped lazily, when
// a ring fills or a reader looks. Storage keeps, beside the values, one
// (time, count, max) record per timestamp — a batch — so pruning drops
// whole batches and a query can bound the answer before it looks at a
// single value: the maxima of r distinct batches are r distinct window
// elements, so the r-th largest batch maximum is a lower bound on the
// window's r-th largest value. A p99 query keeps only the values at or
// above that bound (about 54 of an engine window's ~2460) and selects
// among them with sim.SelectRank. The order statistics are the window's
// own, so every quantile matches the seed tracker's copy-and-sort to the
// last bit; the differential tests and FuzzTailTracker pin that down
// (`make check` runs the former uncached). A query's result is memoized
// until the next add, so the control tick's read right after the
// once-a-second observation costs nothing.
package metrics

import (
	"fmt"
	"math"
	"time"

	"rhythm/internal/sim"
)

// Strict controls how TailTracker.Add treats a timestamp that runs
// backwards (the simulation contract is non-decreasing time). When false —
// the default — the sample's time is clamped to the latest time already
// seen, so the window can never silently widen; when true, Add panics and
// surfaces the caller bug. Build with -tags rhythmstrict to default to
// panicking.
var Strict = strictDefault

// batch is a run of window samples that share one timestamp — one engine
// tick's AddBatch. Its samples enter and leave the window together.
type batch struct {
	t   sim.Time
	n   int     // samples in the run
	max float64 // largest sample in the run
}

// TailTracker keeps latency samples over a sliding window and reports tail
// percentiles, mirroring the paper's per-second p99 monitoring.
//
// Storage is two power-of-two rings: the values in arrival order and the
// batches that partition them. Eviction recycles slots in place, so the
// footprint is bounded by the window's high-water occupancy instead of
// growing with the total number of samples ever added. There are no
// per-sample timestamps: a batch's samples share one.
type TailTracker struct {
	window time.Duration
	vals   []float64 // value ring; len(vals) is the capacity
	head   int       // index of the oldest held value
	n      int       // held values: the window, plus any not yet pruned
	bs     []batch   // batch ring, oldest at bhead
	bhead  int
	bn     int      // held batches
	latest sim.Time // newest timestamp seen (Add clamps to this)

	// scratch holds a query's candidates (the values at or above the
	// batch-max bound) and maxs the batch maxima the bound is selected
	// from; both are reordered in place by selection. Bounded by the
	// window's high-water occupancy, like the rings.
	scratch []float64
	maxs    []float64

	// memoQ/memoV cache the last query until the next add.
	memoOK bool
	memoQ  float64
	memoV  float64

	worstAt sim.Time
	worst   float64
}

// NewTailTracker returns a tracker with the given sliding window.
func NewTailTracker(window time.Duration) *TailTracker {
	if window <= 0 {
		window = time.Second
	}
	return &TailTracker{window: window}
}

// Add records a latency sample observed at time t. Samples must arrive in
// non-decreasing time order (the simulation is single-threaded); a
// backwards t is clamped to the latest time seen, or panics when Strict.
func (tt *TailTracker) Add(t sim.Time, v float64) {
	if t < tt.latest {
		t = tt.backwards(t)
	}
	// The newest batch is stamped with the latest time and is never
	// pruned while it is the newest.
	same := tt.n > 0 && t == tt.latest
	tt.latest, tt.memoOK = t, false
	if tt.n == len(tt.vals) {
		tt.grow(1)
	}
	tt.vals[(tt.head+tt.n)&(len(tt.vals)-1)] = v
	tt.n++
	if same {
		last := &tt.bs[(tt.bhead+tt.bn-1)&(len(tt.bs)-1)]
		last.n++
		if v > last.max {
			last.max = v
		}
		return
	}
	if tt.bn == len(tt.bs) {
		tt.growBatches()
	}
	tt.bs[(tt.bhead+tt.bn)&(len(tt.bs)-1)] = batch{t: t, n: 1, max: v}
	tt.bn++
}

// AddBatch records len(vs) samples all observed at time t, in order. It is
// equivalent to calling Add(t, v) for each v — the engine's sampling pass
// produces a whole tick's draws at one timestamp — but pays the
// clamp/Strict check and the capacity checks exactly once.
func (tt *TailTracker) AddBatch(t sim.Time, vs []float64) {
	if len(vs) == 0 {
		return
	}
	if t < tt.latest {
		t = tt.backwards(t)
	}
	// The newest batch is stamped with the latest time and is never
	// pruned while it is the newest.
	same := tt.n > 0 && t == tt.latest
	tt.latest, tt.memoOK = t, false
	if tt.n+len(vs) > len(tt.vals) {
		tt.grow(len(vs))
	}
	tail := (tt.head + tt.n) & (len(tt.vals) - 1)
	if k := copy(tt.vals[tail:], vs); k < len(vs) {
		copy(tt.vals, vs[k:])
	}
	tt.n += len(vs)
	hi := vs[0]
	for _, v := range vs[1:] {
		if v > hi {
			hi = v
		}
	}
	if same {
		last := &tt.bs[(tt.bhead+tt.bn-1)&(len(tt.bs)-1)]
		last.n += len(vs)
		if hi > last.max {
			last.max = hi
		}
		return
	}
	if tt.bn == len(tt.bs) {
		tt.growBatches()
	}
	tt.bs[(tt.bhead+tt.bn)&(len(tt.bs)-1)] = batch{t: t, n: len(vs), max: hi}
	tt.bn++
}

// backwards applies the time contract to a t earlier than the latest time
// seen: a panic when Strict, otherwise the clamped time. Kept out of line;
// the adds only pay for the comparison.
//
//go:noinline
func (tt *TailTracker) backwards(t sim.Time) sim.Time {
	if Strict {
		panic(fmt.Sprintf("metrics: TailTracker.Add time ran backwards: %v after %v", t, tt.latest))
	}
	return tt.latest
}

// prune drops the batches older than the window, and their samples. It is
// lazy: adds only append, and prune runs when a ring fills up or a reader
// (N, Quantile) looks. Times never decrease, so pruning at the latest time
// removes exactly the prefix an eager prune after every add would have
// removed by then.
func (tt *TailTracker) prune() {
	bh, bn, dropped := tt.bhead, tt.bn, 0
	for bn > 0 {
		b := &tt.bs[bh]
		if tt.latest.Sub(b.t) <= tt.window {
			break
		}
		dropped += b.n
		bh = (bh + 1) & (len(tt.bs) - 1)
		bn--
	}
	tt.bhead, tt.bn = bh, bn
	tt.head = (tt.head + dropped) & (len(tt.vals) - 1)
	tt.n -= dropped
}

// grow makes room for k more values: it prunes, and doubles the value
// ring (64 slots minimum) until the room is there.
func (tt *TailTracker) grow(k int) {
	if tt.prune(); tt.n+k <= len(tt.vals) {
		return
	}
	size := max(2*len(tt.vals), 64)
	for size < tt.n+k {
		size *= 2
	}
	vals := make([]float64, size)
	copy(vals[copy(vals, tt.vals[tt.head:]):], tt.vals[:tt.head])
	tt.vals, tt.head = vals, 0
}

// growBatches makes room for one more batch, like grow (8 slots minimum).
func (tt *TailTracker) growBatches() {
	if tt.prune(); tt.bn < len(tt.bs) {
		return
	}
	bs := make([]batch, max(2*len(tt.bs), 8))
	copy(bs[copy(bs, tt.bs[tt.bhead:]):], tt.bs[:tt.bhead])
	tt.bs, tt.bhead = bs, 0
}

// N returns the number of samples currently in the window.
func (tt *TailTracker) N() int {
	tt.prune()
	return tt.n
}

// Cap returns the value ring's capacity in samples. It is bounded by twice
// the window's high-water occupancy (plus the 64-slot floor) — the
// regression test for the old tracker's unbounded growth reads it.
func (tt *TailTracker) Cap() int { return len(tt.vals) }

// Quantile returns the q-quantile over the current window (0 when empty),
// bit-equal to sorting a copy of the window and evaluating
// sim.QuantileSorted (the seed tracker's computation).
//
// The answer is the window's k-th smallest value, interpolated toward the
// next one, with k from sim.QuantileRank; it and everything above it are
// among the window's r = n-k largest values. The r-th largest batch
// maximum τ bounds the r-th largest value from below, so the values >= τ
// are exactly the window's top len(cand) elements, and the answer is their
// (len(cand)-r)-th smallest, interpolated the same way. When the bound
// cannot filter — fewer than r batches, or more than one batch per eight
// samples (e.g. one sample per timestamp) — τ is -Inf and the candidates
// are the whole window.
func (tt *TailTracker) Quantile(q float64) float64 {
	tt.prune()
	if tt.n == 0 {
		return 0
	}
	if tt.memoOK && q == tt.memoQ {
		return tt.memoV
	}
	k, frac := sim.QuantileRank(tt.n, q)
	r := tt.n - k
	tau := math.Inf(-1)
	if tt.bn >= r && tt.bn*8 <= tt.n {
		tau = tt.batchMax(r)
	}
	cand := tt.candidates(tau)
	v := sim.SelectRank(cand, len(cand)-r, frac)
	tt.memoOK, tt.memoQ, tt.memoV = true, q, v
	return v
}

// batchMax returns the r-th largest batch maximum (1 <= r <= bn).
func (tt *TailTracker) batchMax(r int) float64 {
	if cap(tt.maxs) < tt.bn {
		tt.maxs = make([]float64, tt.bn, len(tt.bs))
	}
	maxs := tt.maxs[:tt.bn]
	for i := range maxs {
		maxs[i] = tt.bs[(tt.bhead+i)&(len(tt.bs)-1)].max
	}
	return sim.SelectRank(maxs, tt.bn-r, 0)
}

// candidates copies the window values >= tau into scratch: the whole
// window, in one copy, when tau is -Inf.
func (tt *TailTracker) candidates(tau float64) []float64 {
	if cap(tt.scratch) < tt.n {
		tt.scratch = make([]float64, tt.n)
	}
	cand := tt.scratch[:tt.n]
	end := tt.head + tt.n
	wrap := max(end-len(tt.vals), 0)
	segs := [2][]float64{tt.vals[tt.head : end-wrap], tt.vals[:wrap]}
	if math.IsInf(tau, -1) {
		copy(cand[copy(cand, segs[0]):], segs[1])
		return cand
	}
	m := 0
	for _, seg := range segs {
		for _, v := range seg {
			if v >= tau {
				cand[m] = v
				m++
			}
		}
	}
	return cand[:m]
}

// P99 returns the 99th percentile over the current window.
func (tt *TailTracker) P99() float64 { return tt.Quantile(0.99) }

// ObserveWindow records the current window p99 at time t into the running
// worst-case (the paper's SLA definition: worst per-second p99).
func (tt *TailTracker) ObserveWindow(t sim.Time) {
	p := tt.P99()
	if p > tt.worst {
		tt.worst = p
		tt.worstAt = t
	}
}

// Worst returns the worst window p99 observed so far and when it occurred.
func (tt *TailTracker) Worst() (float64, sim.Time) { return tt.worst, tt.worstAt }

// ResetWorst clears the running worst-case (used between profiling phases).
func (tt *TailTracker) ResetWorst() { tt.worst, tt.worstAt = 0, 0 }

// EMU is the effective machine utilization of §5.1:
// LC throughput (load normalized to max load) plus BE throughput (jobs
// finished per hour normalized to a solo machine run). It may exceed 1.
func EMU(lcLoadFrac, beThroughput float64) float64 {
	if lcLoadFrac < 0 {
		lcLoadFrac = 0
	}
	if beThroughput < 0 {
		beThroughput = 0
	}
	return lcLoadFrac + beThroughput
}

// Usage accumulates time-weighted utilization of one quantity.
type Usage struct {
	weighted float64 // integral of utilization over time
	duration float64 // total observed seconds
}

// Observe records utilization u (0..1+) held for dt.
func (u *Usage) Observe(util float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	s := dt.Seconds()
	u.weighted += util * s
	u.duration += s
}

// Mean returns the time-weighted mean utilization (0 when nothing was
// observed).
func (u *Usage) Mean() float64 {
	if u.duration == 0 {
		return 0
	}
	return u.weighted / u.duration
}

// Series is a named time series collected during a run (Fig. 17's rows).
type Series struct {
	Name   string
	Times  []float64 // seconds
	Values []float64
}

// Append adds one point.
func (s *Series) Append(t sim.Time, v float64) {
	s.Times = append(s.Times, t.Seconds())
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values.
func (s *Series) Mean() float64 { return sim.Mean(s.Values) }
