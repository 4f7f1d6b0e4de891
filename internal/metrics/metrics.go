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
// record per timestamp — a batch — so pruning drops whole batches and a
// query can bound the answer before it looks at a single value: the
// maxima of r distinct batches are r distinct window elements, so the
// r-th largest batch maximum is a lower bound on the window's r-th
// largest value. A p99 query keeps only the values at or above that
// bound (about 54 of an engine window's ~2460) and selects among them
// with sim.SelectRank.
//
// A batch may also hold pending samples: ones its producer did not
// compute, only bounded from above (AddPartial). They count in the window
// but are not stored. Before a query answers, it asks the producer's
// recompute hook, for every pending batch whose bound reaches the r-th
// largest known value, for the batch's samples that can reach it, so the
// answer is always taken over the window's true top r values. Either way
// the order statistics are the window's own, so every quantile matches
// the seed tracker's copy-and-sort to the last bit; the differential
// tests and FuzzTailTracker pin that down (`make check` runs the former
// uncached). A query's result is memoized until the next add, so the
// control tick's read right after the once-a-second observation costs
// nothing.
package metrics

import (
	"math"
	"time"

	"rhythm/internal/sim"
)

// batch is a run of window samples that share one timestamp — one engine
// tick's AddBatch or AddPartial. Its samples enter and leave the window
// together: held of them in the value ring, and any the producer left
// pending in the batch's slot of the pending ring.
type batch struct {
	t    sim.Time
	held int     // samples in the value ring
	max  float64 // largest known sample, -Inf while none is known
}

// pending is the part of a batch its producer did not compute
// (AddPartial): n samples, each at most bound, that the recompute hook
// produces under tag, and those it has produced so far in late.
type pending struct {
	n     int
	bound float64
	tag   uint64
	late  []float64 // the slot keeps the capacity
}

// TailTracker keeps latency samples over a sliding window and reports tail
// percentiles, mirroring the paper's per-second p99 monitoring.
//
// Storage is power-of-two rings: the known values in arrival order, the
// batches that partition them and, once a batch has left samples pending,
// a pending ring parallel to the batch ring. Eviction recycles slots in
// place, so the footprint is bounded by the window's high-water occupancy
// instead of growing with the total number of samples ever added. There
// are no per-sample timestamps: a batch's samples share one.
type TailTracker struct {
	window time.Duration
	vals   []float64 // value ring; len(vals) is the capacity
	head   int       // index of the oldest held value
	held   int       // values in the ring
	n      int       // window samples, pending ones included, plus any not yet pruned
	bs     []batch   // batch ring, oldest at bhead
	ps     []pending // pending ring, slot for slot with bs; nil until needed
	bhead  int
	bn     int      // held batches
	pend   int      // pending samples in held batches
	late   int      // recomputed samples in held batches
	maxN   int      // largest batch opened: the late slots' size
	latest sim.Time // newest timestamp seen (Add clamps to this)

	// recompute is the producer's hook for pending samples (SetRecompute).
	recompute func(tag uint64, floor float64, dst []float64) (int, float64)

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

// SetRecompute installs the hook a query calls for the pending samples of
// an AddPartial batch that could reach floor, the r-th largest known
// value. fn(tag, floor, dst) gets room for all of the batch's pending
// samples in dst; it must write m of them to dst[:m], in any order, and
// return m and a bound below floor on the ones it leaves pending — or
// write them all. The tracker asks again, under a later query, if the
// new bound reaches that query's floor. The hook must not call back into
// the tracker.
func (tt *TailTracker) SetRecompute(fn func(tag uint64, floor float64, dst []float64) (int, float64)) {
	tt.recompute = fn
}

// Add records a latency sample observed at time t. Samples must arrive in
// non-decreasing time order (the simulation is single-threaded); a
// backwards t is clamped to the latest time seen, so the window can never
// silently widen.
func (tt *TailTracker) Add(t sim.Time, v float64) {
	t, same := tt.stamp(t)
	if tt.held == len(tt.vals) {
		tt.grow(1)
	}
	tt.vals[(tt.head+tt.held)&(len(tt.vals)-1)] = v
	tt.held++
	tt.n++
	if same {
		last := &tt.bs[(tt.bhead+tt.bn-1)&(len(tt.bs)-1)]
		last.held++
		if v > last.max {
			last.max = v
		}
		return
	}
	tt.open(t, 1, v, 0, 0, 0)
}

// AddBatch records len(vs) samples all observed at time t, in order. It is
// equivalent to calling Add(t, v) for each v — the engine's sampling pass
// produces a whole tick's draws at one timestamp — but pays the
// clamp and the capacity checks exactly once.
func (tt *TailTracker) AddBatch(t sim.Time, vs []float64) {
	if len(vs) == 0 {
		return
	}
	tt.AddPartial(t, vs, 0, 0, 0)
}

// AddPartial records len(vs)+pending samples observed at time t: the
// values vs, and pending more that the caller did not compute, each at
// most bound. The window counts all of them. A query that the pending
// samples could reach first asks the recompute hook (SetRecompute) for
// them under tag; the hook must reproduce them exactly, bit for bit, or
// the quantiles are not the window's. With pending samples the batch is
// a new one even at the newest batch's time; without, AddPartial is
// AddBatch.
func (tt *TailTracker) AddPartial(t sim.Time, vs []float64, pending int, bound float64, tag uint64) {
	if len(vs) == 0 && pending == 0 {
		return
	}
	if pending > 0 && tt.recompute == nil {
		panic("metrics: AddPartial with pending samples and no recompute hook")
	}
	t, same := tt.stamp(t)
	if tt.held+len(vs) > len(tt.vals) {
		tt.grow(len(vs))
	}
	tail := (tt.head + tt.held) & (len(tt.vals) - 1)
	if k := copy(tt.vals[tail:], vs); k < len(vs) {
		copy(tt.vals, vs[k:])
	}
	tt.held += len(vs)
	tt.n += len(vs)
	hi := math.Inf(-1)
	for _, v := range vs {
		if v > hi {
			hi = v
		}
	}
	if same && pending == 0 {
		last := &tt.bs[(tt.bhead+tt.bn-1)&(len(tt.bs)-1)]
		last.held += len(vs)
		if hi > last.max {
			last.max = hi
		}
		return
	}
	tt.open(t, len(vs), hi, pending, bound, tag)
}

// stamp clamps an add's time t to the latest time seen and makes it the
// latest; same reports that t is the newest batch's time. The newest
// batch is stamped with the latest time and is never pruned while it is
// the newest.
func (tt *TailTracker) stamp(t sim.Time) (_ sim.Time, same bool) {
	if t < tt.latest {
		t = tt.latest
	}
	same = tt.bn > 0 && t == tt.latest
	tt.latest, tt.memoOK = t, false
	return t, same
}

// open starts a batch at the stamped time t: held values just stored in
// the ring, hi their maximum, and pend pending samples at most bound.
func (tt *TailTracker) open(t sim.Time, held int, hi float64, pend int, bound float64, tag uint64) {
	tt.maxN = max(tt.maxN, held+pend)
	if tt.bn == len(tt.bs) {
		tt.growBatches()
	}
	slot := (tt.bhead + tt.bn) & (len(tt.bs) - 1)
	tt.bs[slot] = batch{t: t, held: held, max: hi}
	tt.bn++
	if pend > 0 && tt.ps == nil {
		tt.ps = make([]pending, len(tt.bs))
		tt.lateRoom()
	}
	if tt.ps != nil {
		p := &tt.ps[slot]
		*p = pending{n: pend, bound: bound, tag: tag, late: p.late[:0]}
		tt.n += pend
		tt.pend += pend
	}
}

// prune drops the batches older than the window, and their samples. It is
// lazy: adds only append, and prune runs when a ring fills up or a reader
// (N, Quantile) looks. Times never decrease, so pruning at the latest time
// removes exactly the prefix an eager prune after every add would have
// removed by then.
func (tt *TailTracker) prune() {
	bh, bn, dropped := tt.bhead, tt.bn, 0
	for bn > 0 {
		if tt.latest.Sub(tt.bs[bh].t) <= tt.window {
			break
		}
		dropped += tt.bs[bh].held
		if tt.ps != nil {
			p := &tt.ps[bh]
			tt.n -= p.n + len(p.late)
			tt.pend -= p.n
			tt.late -= len(p.late)
		}
		bh = (bh + 1) & (len(tt.bs) - 1)
		bn--
	}
	tt.bhead, tt.bn = bh, bn
	tt.head = (tt.head + dropped) & (len(tt.vals) - 1)
	tt.held -= dropped
	tt.n -= dropped
}

// grow makes room for k more values: it prunes, and doubles the value
// ring (64 slots minimum) until the room is there.
func (tt *TailTracker) grow(k int) {
	if tt.prune(); tt.held+k <= len(tt.vals) {
		return
	}
	size := max(2*len(tt.vals), 64)
	for size < tt.held+k {
		size *= 2
	}
	vals := make([]float64, size)
	copy(vals[copy(vals, tt.vals[tt.head:]):], tt.vals[:tt.head])
	tt.vals, tt.head = vals, 0
}

// growBatches makes room for one more batch, like grow (8 slots minimum),
// and grows the pending ring with it.
func (tt *TailTracker) growBatches() {
	if tt.prune(); tt.bn < len(tt.bs) {
		return
	}
	size := max(2*len(tt.bs), 8)
	bs := make([]batch, size)
	copy(bs[copy(bs, tt.bs[tt.bhead:]):], tt.bs[:tt.bhead])
	if tt.ps != nil {
		ps := make([]pending, size)
		copy(ps[copy(ps, tt.ps[tt.bhead:]):], tt.ps[:tt.bhead])
		tt.ps = ps
	}
	tt.bs, tt.bhead = bs, 0
	if tt.ps != nil {
		tt.lateRoom()
	}
}

// lateRoom gives every pending slot that lacks it room for maxN
// recomputed samples (a batch's size), from one allocation, when the
// pending ring is made or grown (and should a later batch be larger): a
// slot keeps its room when a new batch reuses it, so recomputes allocate
// nothing.
func (tt *TailTracker) lateRoom() {
	short := 0
	for i := range tt.ps {
		if cap(tt.ps[i].late) < tt.maxN {
			short++
		}
	}
	slab := make([]float64, short*tt.maxN)
	for i := range tt.ps {
		if p := &tt.ps[i]; cap(p.late) < tt.maxN {
			p.late = append(slab[:0:tt.maxN], p.late...)
			slab = slab[tt.maxN:]
		}
	}
}

// N returns the number of samples currently in the window, pending ones
// included.
func (tt *TailTracker) N() int {
	tt.prune()
	return tt.n
}

// Quantile returns the q-quantile over the current window (0 when empty),
// bit-equal to sorting a copy of the window and evaluating
// sim.QuantileSorted (the seed tracker's computation).
//
// The answer is the window's k-th smallest value, interpolated toward the
// next one, with k from sim.QuantileRank; it and everything above it are
// among the window's r = n-k largest values. The r-th largest batch
// maximum τ bounds the r-th largest known value from below, so the known
// values >= τ are exactly the top len(cand) known values. When the bound
// cannot filter — fewer than r batches, or more than one batch per eight
// samples (e.g. one sample per timestamp) — τ is -Inf and the candidates
// are every known value. resolve then adds the pending samples that could
// be among the top r, and the answer is the (len(cand)-r)-th smallest
// candidate, interpolated the same way.
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
	if tt.pend > 0 {
		cand = tt.resolve(cand, r, tau)
	}
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

// candidates copies the known values >= tau into scratch: the ring, then
// the recomputed values, all of them when tau is -Inf.
func (tt *TailTracker) candidates(tau float64) []float64 {
	if cap(tt.scratch) < tt.n {
		tt.scratch = make([]float64, tt.n)
	}
	cand := tt.scratch[:tt.n]
	end := tt.head + tt.held
	wrap := max(end-len(tt.vals), 0)
	segs := [2][]float64{tt.vals[tt.head : end-wrap], tt.vals[:wrap]}
	m := 0
	if math.IsInf(tau, -1) {
		m = copy(cand, segs[0])
		m += copy(cand[m:], segs[1])
	} else {
		for _, seg := range segs {
			for _, v := range seg {
				if v >= tau {
					cand[m] = v
					m++
				}
			}
		}
	}
	for i := 0; tt.late > 0 && i < tt.bn; i++ {
		m = appendAtLeast(cand, m, tt.ps[(tt.bhead+i)&(len(tt.bs)-1)].late, tau)
	}
	return cand[:m]
}

// resolve asks the hook, for every pending batch whose bound reaches the
// r-th largest known value (the floor), for the batch's samples that can
// reach it, and returns cand (the known values >= tau) with those that
// do. No sample left pending can be among the window's top r: each is at
// most its batch's new bound, which is below the floor. Skipped when no
// bound reaches tau, which the floor is at least.
func (tt *TailTracker) resolve(cand []float64, r int, tau float64) []float64 {
	mask := len(tt.bs) - 1
	reach := false
	for i := 0; i < tt.bn && !reach; i++ {
		p := &tt.ps[(tt.bhead+i)&mask]
		reach = p.n > 0 && !(p.bound < tau)
	}
	if !reach {
		return cand
	}
	floor := math.Inf(-1)
	if len(cand) >= r {
		floor = sim.SelectRank(cand, len(cand)-r, 0)
	}
	m := len(cand)
	for i := 0; i < tt.bn; i++ {
		slot := (tt.bhead + i) & mask
		p := &tt.ps[slot]
		if p.n == 0 || p.bound < floor {
			continue
		}
		l := len(p.late)
		if cap(p.late) < l+p.n {
			tt.lateRoom()
		}
		got, bound := tt.recompute(p.tag, floor, p.late[l:l+p.n])
		if got > p.n || (got < p.n && !(bound < floor)) {
			panic("metrics: recompute hook left pending samples that reach the floor")
		}
		p.late = p.late[:l+got]
		b := &tt.bs[slot]
		for _, v := range p.late[l:] {
			if v > b.max {
				b.max = v
			}
		}
		m = appendAtLeast(cand[:cap(cand)], m, p.late[l:], floor)
		p.n -= got
		p.bound = bound
		tt.pend -= got
		tt.late += got
	}
	return cand[:m]
}

// appendAtLeast copies the values of vs that are >= lo into dst from
// index m on and returns the new length.
func appendAtLeast(dst []float64, m int, vs []float64, lo float64) int {
	for _, v := range vs {
		if v >= lo {
			dst[m] = v
			m++
		}
	}
	return m
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
