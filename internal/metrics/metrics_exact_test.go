package metrics

import (
	"sort"
	"testing"
	"time"

	"rhythm/internal/sim"
)

// refTracker is the seed implementation kept as the test oracle: append
// slices, prune by re-slicing, quantile by copy-and-sort. The incremental
// TailTracker must match it bit for bit on every query — that equality is
// what keeps all experiment tables byte-identical across the rewrite.
type refTracker struct {
	window time.Duration
	times  []sim.Time
	values []float64
	latest sim.Time
}

func (rt *refTracker) add(t sim.Time, v float64) {
	if t < rt.latest {
		t = rt.latest // same clamp contract as TailTracker.Add
	}
	rt.latest = t
	rt.times = append(rt.times, t)
	rt.values = append(rt.values, v)
	cut := 0
	for cut < len(rt.times) && t.Sub(rt.times[cut]) > rt.window {
		cut++
	}
	if cut > 0 {
		rt.times = rt.times[cut:]
		rt.values = rt.values[cut:]
	}
}

func (rt *refTracker) quantile(q float64) float64 {
	if len(rt.values) == 0 {
		return 0
	}
	s := append([]float64(nil), rt.values...)
	sort.Float64s(s)
	return sim.QuantileSorted(s, q)
}

// TestTailTrackerMatchesReference is the differential-exactness test the
// tentpole demands (and `make check` runs explicitly): randomized add/prune
// sequences — bursts, gaps, duplicate values, occasional backwards
// timestamps — with every quantile compared for exact float equality
// against the copy-and-sort oracle.
func TestTailTrackerMatchesReference(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	for _, window := range []time.Duration{50 * time.Millisecond, time.Second, 3 * time.Second} {
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
		rng := sim.NewRNG(7).Fork("exactness-" + window.String())
		now := sim.Time(0)
		for step := 0; step < 20000; step++ {
			// Irregular arrival: mostly dense, sometimes a gap that
			// flushes most of the window, rarely a backwards stamp.
			switch {
			case rng.Float64() < 0.01:
				now = now.Add(window * 2)
			case rng.Float64() < 0.05:
				now = now.Add(-time.Millisecond) // exercised clamp path
			default:
				now = now.Add(time.Duration(rng.Float64() * 3 * float64(time.Millisecond)))
			}
			// Coarse values force duplicates into the multiset.
			v := float64(int(rng.Float64()*200)) / 100
			tt.Add(now, v)
			ref.add(now, v)
			if tt.N() != len(ref.values) {
				t.Fatalf("window %v step %d: N = %d, ref %d", window, step, tt.N(), len(ref.values))
			}
			q := quantiles[step%len(quantiles)]
			if got, want := tt.Quantile(q), ref.quantile(q); got != want {
				t.Fatalf("window %v step %d: quantile(%v) = %v, ref %v", window, step, q, got, want)
			}
			// Re-query immediately: querying must not perturb the window
			// (scratch reordering stays inside the scratch buffer).
			if got, want := tt.Quantile(q), ref.quantile(q); got != want {
				t.Fatalf("window %v step %d: reconciled quantile(%v) = %v, ref %v", window, step, q, got, want)
			}
		}
	}
}

// TestTailTrackerBoundedCapacity is the regression test for the seed
// tracker's prune leak: over a multi-hour run the ring and the index arena
// must stay bounded by the window's high-water occupancy, not grow with the
// total samples added.
func TestTailTrackerBoundedCapacity(t *testing.T) {
	const window = 3 * time.Second
	tt := NewTailTracker(window)
	// 100 samples/s for 3 simulated hours: ~1.08M samples through a
	// window that holds at most ~300.
	const perSecond = 100
	step := time.Second / perSecond
	now := sim.Time(0)
	rng := sim.NewRNG(11).Fork("bounded-capacity")
	for i := 0; i < 3*3600*perSecond; i++ {
		now = now.Add(step)
		tt.Add(now, rng.Float64())
	}
	maxLive := perSecond*int(window/time.Second) + 1
	// Ring capacity: next power of two above occupancy, 64 floor, one
	// doubling of headroom.
	if n := len(tt.vals); n > 4*maxLive {
		t.Fatalf("ring capacity %d after 1M adds; occupancy never exceeded %d", n, maxLive)
	}
	// Query side: the selection scratch is sized by the high-water window
	// occupancy, never by the total samples added.
	tt.P99()
	if c := cap(tt.scratch); c > 4*maxLive {
		t.Fatalf("scratch capacity %d after 1M adds; occupancy never exceeded %d", c, maxLive)
	}
	if tt.N() > maxLive {
		t.Fatalf("live samples %d exceed window occupancy %d", tt.N(), maxLive)
	}
}

// TestTailTrackerAddBatchMatchesSequential pins the bulk-insert contract:
// AddBatch(t, vs) is element-for-element equivalent to Add(t, v) per value,
// including the clamp path, eviction timing, and every quantile bit.
func TestTailTrackerAddBatchMatchesSequential(t *testing.T) {
	const window = 200 * time.Millisecond
	batched := NewTailTracker(window)
	seq := NewTailTracker(window)
	rng := sim.NewRNG(13).Fork("addbatch-exactness")
	now := sim.Time(0)
	var vs []float64
	for step := 0; step < 5000; step++ {
		switch {
		case rng.Float64() < 0.01:
			now = now.Add(window * 2)
		case rng.Float64() < 0.05:
			now = now.Add(-time.Millisecond) // clamp path
		default:
			now = now.Add(time.Duration(rng.Float64() * 5 * float64(time.Millisecond)))
		}
		vs = vs[:0]
		for k := int(rng.Float64() * 6); k >= 0; k-- {
			vs = append(vs, float64(int(rng.Float64()*200))/100)
		}
		batched.AddBatch(now, vs)
		for _, v := range vs {
			seq.Add(now, v)
		}
		if batched.N() != seq.N() {
			t.Fatalf("step %d: N = %d batched, %d sequential", step, batched.N(), seq.N())
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := batched.Quantile(q), seq.Quantile(q); got != want {
				t.Fatalf("step %d: quantile(%v) = %v batched, %v sequential", step, q, got, want)
			}
		}
	}
	// Empty batch is a no-op, even with a backwards timestamp.
	before := batched.N()
	batched.AddBatch(0, nil)
	if batched.N() != before {
		t.Fatalf("empty AddBatch changed N: %d -> %d", before, batched.N())
	}
}

// TestTailTrackerOutOfOrderClamped pins the time contract: a backwards
// timestamp is recorded at the latest time seen, so it cannot resurrect
// or widen the window.
func TestTailTrackerOutOfOrderClamped(t *testing.T) {
	tt := NewTailTracker(time.Second)
	tt.Add(sim.FromSeconds(5), 10)
	tt.Add(sim.FromSeconds(4), 20) // backwards: clamped to t=5s
	if tt.N() != 2 {
		t.Fatalf("N = %d, want 2 (clamped sample retained)", tt.N())
	}
	// Advancing just past 5s+window must evict both: the second sample
	// lives at the clamped time, not at its claimed 4s.
	tt.Add(sim.FromSeconds(6.5), 30)
	if tt.N() != 1 {
		t.Fatalf("N = %d after window passed, want 1", tt.N())
	}
	if got := tt.P99(); got != 30 {
		t.Fatalf("p99 = %v, want 30", got)
	}
}
