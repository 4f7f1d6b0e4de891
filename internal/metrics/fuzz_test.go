package metrics

import (
	"math"
	"testing"
	"time"

	"rhythm/internal/sim"
)

// fuzzOps decodes fuzz bytes into tracker operations. The first byte picks
// the window; after it, each operation is an opcode byte and its operands:
//
//	op%4 == 0: Add       — step byte, value-seed byte
//	op%4 == 1: AddBatch  — step byte, two size bytes (size 0..300), value-seed byte;
//	           with op >= 128 an AddPartial, and one more byte: the bound
//	           (a value level) at or below which the batch's values are
//	           left pending for the recompute hook
//	op%4 == 2: Quantile  — q byte
//	op%4 == 3: Quantile twice with no add between (the memoized read) — q byte
//
// A step byte moves time: by 0 (a same-timestamp append, also across
// calls), backwards (the clamp contract), past the window (a flush), by
// exactly the window (the keep/evict boundary) or by a fraction of it.
// Values come from a small LCG over 64 levels, so batches carry duplicate
// values and values equal to other batches' maxima — to the bound τ.
type fuzzOps struct {
	data []byte
	pos  int
}

func (f *fuzzOps) more() bool { return f.pos < len(f.data) }

// next returns the next byte, 0 past the end.
func (f *fuzzOps) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	f.pos++
	return f.data[f.pos-1]
}

func fuzzStep(now sim.Time, b byte, window time.Duration) sim.Time {
	switch b % 8 {
	case 0:
		return now
	case 1:
		return now.Add(-time.Duration(b>>3+1) * time.Millisecond)
	case 2:
		return now.Add(window + time.Duration(b>>3)*time.Millisecond)
	case 3:
		return now.Add(window)
	default:
		return now.Add(time.Duration(b>>3) * window / 64)
	}
}

// recomputeHalf is a recompute hook over the pending samples of each tag:
// for a positive floor it hands back the samples above half of it and
// keeps the rest pending with that bound, and otherwise all of them. It
// counts its calls in *calls when calls is not nil.
func recomputeHalf(t *testing.T, pending map[uint64][]float64, calls *int) func(uint64, float64, []float64) (int, float64) {
	return func(tag uint64, floor float64, dst []float64) (int, float64) {
		vs := pending[tag]
		if len(dst) != len(vs) {
			t.Fatalf("recompute of batch %d: %d slots for %d pending samples", tag, len(dst), len(vs))
		}
		if calls != nil {
			*calls++
		}
		bound := floor / 2
		if !(floor > 0) {
			bound = math.Inf(-1)
		}
		m := 0
		var rest []float64
		for _, v := range vs {
			if v > bound {
				dst[m] = v
				m++
			} else {
				rest = append(rest, v)
			}
		}
		pending[tag] = rest
		return m, bound
	}
}

func fuzzValues(vs []float64, seed byte) {
	x := uint32(seed)*2654435761 + 1
	for i := range vs {
		x = x*1103515245 + 12345
		vs[i] = float64(x>>16%64) / 8
	}
}

var fuzzQuantiles = []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

func fuzzQ(b byte) float64 {
	if int(b) < 7*len(fuzzQuantiles) {
		return fuzzQuantiles[int(b)%len(fuzzQuantiles)]
	}
	return float64(b) / 255
}

// FuzzTailTracker holds the tracker to the copy-and-sort refTracker over
// the fully recomputed window: every quantile read must match it bit for
// bit, and N must match after every operation. Pending samples are handed
// back by recomputeHalf, in part where the floor allows. Only the first 256 bytes of an input are decoded. The committed
// corpus under testdata/fuzz/FuzzTailTracker covers engine-shaped
// 80-sample ticks, one sample per timestamp, same-timestamp appends
// across calls, backwards times, flushes, empty batches and 300-sample
// batches; the seeds below add partial ticks, all-pending batches and
// partial batches at one timestamp.
func FuzzTailTracker(f *testing.F) {
	f.Add([]byte{1, 1, 4, 0, 80, 7, 3, 4, 1, 4, 0, 80, 9, 3, 4})
	f.Add([]byte{2, 129, 4, 0, 80, 7, 40, 129, 4, 0, 80, 9, 30, 2, 180, 129, 4, 0, 80, 3, 64, 3, 4, 2, 0})
	f.Add([]byte{2, 129, 0, 0, 80, 5, 255, 1, 0, 0, 3, 6, 129, 0, 0, 40, 8, 20, 3, 180, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The oracle sorts the whole window on every read; capping the
		// input at 256 bytes keeps one input (and its minimization) fast.
		data = data[:min(len(data), 256)]
		windows := []time.Duration{50 * time.Millisecond, time.Second, 3 * time.Second}
		window := windows[int(data[0])%len(windows)]
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
		pending := map[uint64][]float64{}
		tt.SetRecompute(recomputeHalf(t, pending, nil))
		ops := &fuzzOps{data: data[1:]}
		now := sim.Time(0)
		var vs []float64
		check := func(step int, q float64) {
			got, want := tt.Quantile(q), ref.quantile(q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: quantile(%v) = %v, ref %v (n=%d)", step, q, got, want, len(ref.values))
			}
		}
		for step := 0; ops.more(); step++ {
			switch op := ops.next(); op % 4 {
			case 0, 1:
				now = fuzzStep(now, ops.next(), window)
				size := 1
				if op%4 == 1 {
					size = (int(ops.next())<<8 | int(ops.next())) % 301
				}
				vs = append(vs[:0], make([]float64, size)...)
				fuzzValues(vs, ops.next())
				switch {
				case op%4 == 0:
					tt.Add(now, vs[0])
				case op >= 128:
					bound := float64(ops.next()%64) / 8
					var known, pend []float64
					for _, v := range vs {
						if v <= bound {
							pend = append(pend, v)
						} else {
							known = append(known, v)
						}
					}
					tag := uint64(step)
					if len(pend) > 0 {
						pending[tag] = pend
					}
					tt.AddPartial(now, known, len(pend), bound, tag)
				default:
					tt.AddBatch(now, vs)
				}
				for _, v := range vs {
					ref.add(now, v)
				}
			case 2:
				check(step, fuzzQ(ops.next()))
			case 3:
				q := fuzzQ(ops.next())
				check(step, q)
				check(step, q)
			}
			if tt.N() != len(ref.values) {
				t.Fatalf("op %d: N = %d, ref %d", step, tt.N(), len(ref.values))
			}
		}
	})
}

// TestTailTrackerBatchBoundMatchesReference drives the batch-max bound
// itself — the existing differential tests mostly add one sample per
// timestamp, where the bound is skipped — with engine-shaped traffic:
// batch sizes 1, 3, 80 and 200 at 100 ms ticks into a 3 s window, random
// gaps, coarse (duplicated) values, and every quantile compared bit for
// bit against the copy-and-sort oracle. The lazy rows add each batch as
// the engine's lazy sampling pass does: the values at or below a cutoff
// pending, with the cutoff as the bound. The cutoff drifts, and steps
// from 0.9 to 0.2 of the value range and back, so that pending batches
// reach the window's top values and must be recomputed, which the rows
// require.
func TestTailTrackerBatchBoundMatchesReference(t *testing.T) {
	const window = 3 * time.Second
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, lazy := range []bool{false, true} {
		for _, size := range []int{1, 3, 80, 200} {
			tt := NewTailTracker(window)
			ref := &refTracker{window: window}
			pending := map[uint64][]float64{}
			recomputes := 0
			tt.SetRecompute(recomputeHalf(t, pending, &recomputes))
			rng := sim.NewRNG(17).Fork("batch-bound")
			now := sim.Time(0)
			vs := make([]float64, size)
			for step := 0; step < 400; step++ {
				if rng.Float64() < 0.03 {
					now = now.Add(time.Duration(rng.Float64() * float64(2*window)))
				}
				now = now.Add(100 * time.Millisecond)
				for i := range vs {
					vs[i] = float64(int(rng.Float64()*400)) / 100
				}
				if lazy {
					cut := 3.6 * (0.9 + 0.1*rng.Float64())
					if step/50%2 == 1 {
						cut = 0.8
					}
					var known, pend []float64
					for _, v := range vs {
						if v <= cut {
							pend = append(pend, v)
						} else {
							known = append(known, v)
						}
					}
					pending[uint64(step)] = pend
					tt.AddPartial(now, known, len(pend), cut, uint64(step))
				} else {
					tt.AddBatch(now, vs)
				}
				for _, v := range vs {
					ref.add(now, v)
				}
				// The lazy rows read only the p99 between ticks, as the
				// engine does, and the full sweep, which recomputes
				// everything, every 25 ticks.
				qs := quantiles
				if lazy && step%25 != 24 {
					qs = []float64{0.99}
				}
				for _, q := range qs {
					if got, want := tt.Quantile(q), ref.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("lazy %v size %d step %d: quantile(%v) = %v, ref %v", lazy, size, step, q, got, want)
					}
				}
			}
			if lazy && recomputes == 0 {
				t.Errorf("size %d: no pending batch was recomputed", size)
			}
		}
	}
}

// TestTailTrackerAddInvalidatesMemo pins the query memo's lifetime: a
// repeated read returns the memoized value, and any add — Add or AddBatch,
// even at the same timestamp and even of a value that does not move the
// answer's rank — forces the next read to recompute.
func TestTailTrackerAddInvalidatesMemo(t *testing.T) {
	tt := NewTailTracker(time.Second)
	now := sim.FromSeconds(1)
	want := func(sorted ...float64) float64 { return sim.QuantileSorted(sorted, 0.99) }
	tt.AddBatch(now, []float64{1, 2, 3})
	if got, w := tt.P99(), want(1, 2, 3); got != w || tt.P99() != w {
		t.Fatalf("p99 = %v, want %v", got, w)
	}
	tt.Add(now, 10) // same timestamp: extends the newest batch
	if got, w := tt.P99(), want(1, 2, 3, 10); got != w {
		t.Fatalf("p99 after Add = %v, want %v (stale memo?)", got, w)
	}
	tt.AddBatch(now.Add(time.Millisecond), []float64{0})
	if got, w := tt.P99(), want(0, 1, 2, 3, 10); got != w {
		t.Fatalf("p99 after AddBatch = %v, want %v (stale memo?)", got, w)
	}
	if got := tt.Quantile(0); got != 0 {
		t.Fatalf("min = %v, want 0 (memo keyed on q?)", got)
	}
}

// TestTailTrackerZeroAllocs pins the steady-state tracker to zero heap
// allocations: an engine tick's AddBatch plus the per-second read, once
// the rings and the query scratch have grown.
func TestTailTrackerZeroAllocs(t *testing.T) {
	tt := NewTailTracker(3 * time.Second)
	vs := make([]float64, 80)
	rng := sim.NewRNG(3).Fork("allocs")
	for i := range vs {
		vs[i] = rng.Float64()
	}
	now := sim.Time(0)
	tick := func() {
		now = now.Add(100 * time.Millisecond)
		tt.AddBatch(now, vs)
		tt.P99()
	}
	for i := 0; i < 100; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("AddBatch+P99 allocates %.1f per tick, want 0", allocs)
	}
}

// TestTailTrackerPartialZeroAllocs pins lazily fed traffic to zero heap
// allocations once the window is full: an engine tick's AddPartial plus
// the per-second read, with a bound that every query must recompute from
// (the hook hands back every pending sample).
func TestTailTrackerPartialZeroAllocs(t *testing.T) {
	tt := NewTailTracker(3 * time.Second)
	vs := make([]float64, 80)
	rng := sim.NewRNG(3).Fork("allocs")
	for i := range vs {
		vs[i] = rng.Float64()
	}
	tt.SetRecompute(func(_ uint64, _ float64, dst []float64) (int, float64) {
		return copy(dst, vs[8:]), 0
	})
	now := sim.Time(0)
	tick := func() {
		now = now.Add(100 * time.Millisecond)
		tt.AddPartial(now, vs[:8], 72, 2, 0)
		tt.P99()
	}
	for i := 0; i < 100; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("AddPartial+P99 allocates %.1f per tick, want 0", allocs)
	}
}
