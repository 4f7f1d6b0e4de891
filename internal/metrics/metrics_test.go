package metrics

import (
	"math"
	"testing"
	"time"

	"rhythm/internal/sim"
)

func TestTailTrackerWindowPruning(t *testing.T) {
	tt := NewTailTracker(time.Second)
	tt.Add(sim.FromSeconds(0), 10)
	tt.Add(sim.FromSeconds(0.5), 20)
	tt.Add(sim.FromSeconds(2), 30) // evicts both earlier samples
	if tt.N() != 1 {
		t.Fatalf("window holds %d samples, want 1", tt.N())
	}
	if got := tt.P99(); got != 30 {
		t.Fatalf("p99 = %v, want 30", got)
	}
}

func TestTailTrackerQuantile(t *testing.T) {
	tt := NewTailTracker(time.Minute)
	for i := 1; i <= 100; i++ {
		tt.Add(sim.FromSeconds(float64(i)/1000), float64(i))
	}
	if got := tt.Quantile(0.5); math.Abs(got-50.5) > 1 {
		t.Fatalf("median = %v", got)
	}
	p99 := tt.P99()
	if p99 < 99 || p99 > 100 {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestTailTrackerEmpty(t *testing.T) {
	tt := NewTailTracker(time.Second)
	if tt.P99() != 0 || tt.N() != 0 {
		t.Fatal("empty tracker should report 0")
	}
}

func TestTailTrackerWorst(t *testing.T) {
	tt := NewTailTracker(time.Second)
	tt.Add(sim.FromSeconds(0.1), 100)
	tt.ObserveWindow(sim.FromSeconds(0.1))
	tt.Add(sim.FromSeconds(2), 50) // first sample pruned
	tt.ObserveWindow(sim.FromSeconds(2))
	worst, at := tt.Worst()
	if worst != 100 || at != sim.FromSeconds(0.1) {
		t.Fatalf("worst = %v at %v", worst, at)
	}
}

func TestTailTrackerDefaultWindow(t *testing.T) {
	tt := NewTailTracker(0)
	tt.Add(sim.FromSeconds(0), 1)
	tt.Add(sim.FromSeconds(0.5), 2)
	if tt.N() != 2 {
		t.Fatal("default window should be one second")
	}
}

func TestEMU(t *testing.T) {
	if got := EMU(0.65, 0.4); math.Abs(got-1.05) > 1e-12 {
		t.Fatalf("EMU = %v, want 1.05 (may exceed 1 per §5.1)", got)
	}
	if EMU(-1, -1) != 0 {
		t.Fatal("negative inputs should clamp")
	}
}

func TestUsageTimeWeighting(t *testing.T) {
	var u Usage
	u.Observe(1.0, time.Second)
	u.Observe(0.0, 3*time.Second)
	if got := u.Mean(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("mean = %v, want 0.25", got)
	}
	u.Observe(0.5, 0) // ignored
	if got := u.Mean(); math.Abs(got-0.25) > 1e-12 {
		t.Fatal("zero-duration observation should not count")
	}
	var empty Usage
	if empty.Mean() != 0 {
		t.Fatal("empty usage mean should be 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "load"
	s.Append(sim.FromSeconds(1), 0.5)
	s.Append(sim.FromSeconds(2), 0.8)
	s.Append(sim.FromSeconds(3), 0.2)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Max() != 0.8 {
		t.Fatalf("max = %v", s.Max())
	}
	if math.Abs(s.Mean()-0.5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if (&Series{}).Max() != 0 {
		t.Fatal("empty series max should be 0")
	}
}
