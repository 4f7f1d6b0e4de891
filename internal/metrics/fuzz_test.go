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
//	op%4 == 1: AddBatch  — step byte, two size bytes (size 0..300), value-seed byte
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

// FuzzTailTracker holds the tracker to the copy-and-sort refTracker: every
// quantile read must match it bit for bit, and N must match after every
// operation. Only the first 256 bytes of an input are decoded. The
// committed corpus under testdata/fuzz/FuzzTailTracker covers
// engine-shaped 80-sample ticks, one sample per timestamp, same-timestamp
// appends across calls, backwards times, flushes, empty batches and
// 300-sample batches.
func FuzzTailTracker(f *testing.F) {
	f.Add([]byte{1, 1, 4, 0, 80, 7, 3, 4, 1, 4, 0, 80, 9, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The oracle sorts the whole window on every read; capping the
		// input at 256 bytes keeps one input (and its minimization) fast.
		data = data[:min(len(data), 256)]
		defer func(old bool) { Strict = old }(Strict)
		Strict = false
		windows := []time.Duration{50 * time.Millisecond, time.Second, 3 * time.Second}
		window := windows[int(data[0])%len(windows)]
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
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
				if op%4 == 0 {
					tt.Add(now, vs[0])
				} else {
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
// bit against the copy-and-sort oracle.
func TestTailTrackerBatchBoundMatchesReference(t *testing.T) {
	const window = 3 * time.Second
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, size := range []int{1, 3, 80, 200} {
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
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
			tt.AddBatch(now, vs)
			for _, v := range vs {
				ref.add(now, v)
			}
			for _, q := range quantiles {
				if got, want := tt.Quantile(q), ref.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("size %d step %d: quantile(%v) = %v, ref %v", size, step, q, got, want)
				}
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
