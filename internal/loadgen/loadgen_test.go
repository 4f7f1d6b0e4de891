package loadgen

import (
	"math"
	"testing"
	"time"

	"rhythm/internal/sim"
)

func TestConstant(t *testing.T) {
	p := Constant(0.65)
	for _, s := range []float64{0, 100, 1e6} {
		if got := p.Load(sim.FromSeconds(s)); got != 0.65 {
			t.Fatalf("constant load at %vs = %v", s, got)
		}
	}
}

func TestStepSweep(t *testing.T) {
	p := Step{Levels: []float64{0.1, 0.5, 0.9}, Dwell: 10 * time.Second}
	cases := map[float64]float64{0: 0.1, 9.9: 0.1, 10: 0.5, 25: 0.9, 1000: 0.9}
	for at, want := range cases {
		if got := p.Load(sim.FromSeconds(at)); got != want {
			t.Fatalf("step load at %vs = %v, want %v", at, got, want)
		}
	}
}

func TestStepDegenerate(t *testing.T) {
	if (Step{}).Load(0) != 0 {
		t.Fatal("empty sweep should be 0")
	}
	p := Step{Levels: []float64{0.3, 0.7}} // no dwell
	if p.Load(0) != 0.7 {
		t.Fatal("zero dwell should pin to last level")
	}
}

func TestDiurnalPeriodicity(t *testing.T) {
	d, err := NewDiurnal(24*time.Hour, 0.2, 0.9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Without bursts the wave is exactly periodic.
	for _, s := range []float64{0, 3600, 40000} {
		a := d.Load(sim.FromSeconds(s))
		b := d.Load(sim.FromSeconds(s + 24*3600))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("not periodic at %vs: %v vs %v", s, a, b)
		}
	}
	// Trough at phase 0, peak at half period.
	if got := d.Load(0); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("trough = %v, want 0.2", got)
	}
	if got := d.Load(sim.FromSeconds(12 * 3600)); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("peak = %v, want 0.9", got)
	}
}

func TestDiurnalBoundsWithBursts(t *testing.T) {
	d, err := NewDiurnal(time.Hour, 0.1, 0.8, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0.0; s < 7200; s += 7 {
		l := d.Load(sim.FromSeconds(s))
		if l < 0 || l > 0.8+0.3*0.7+1e-9 {
			t.Fatalf("burst load out of bounds at %vs: %v", s, l)
		}
	}
}

func TestDiurnalDeterministic(t *testing.T) {
	a, _ := NewDiurnal(time.Hour, 0.1, 0.9, 0.2, 42)
	b, _ := NewDiurnal(time.Hour, 0.1, 0.9, 0.2, 42)
	for s := 0.0; s < 3600; s += 13 {
		if a.Load(sim.FromSeconds(s)) != b.Load(sim.FromSeconds(s)) {
			t.Fatal("same seed should replay identically")
		}
	}
}

func TestDiurnalValidation(t *testing.T) {
	if _, err := NewDiurnal(0, 0.1, 0.9, 0, 1); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewDiurnal(time.Hour, 0.9, 0.1, 0, 1); err == nil {
		t.Fatal("min >= max accepted")
	}
	if _, err := NewDiurnal(time.Hour, -0.1, 0.9, 0, 1); err == nil {
		t.Fatal("negative min accepted")
	}
}

func TestReplayInterpolation(t *testing.T) {
	r := Replay{Samples: []float64{0, 1, 0.5}, Spacing: 10 * time.Second}
	cases := map[float64]float64{0: 0, 5: 0.5, 10: 1, 15: 0.75, 20: 0.5, 100: 0.5}
	for at, want := range cases {
		if got := r.Load(sim.FromSeconds(at)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("replay at %vs = %v, want %v", at, got, want)
		}
	}
}

func TestReplayDegenerate(t *testing.T) {
	if (Replay{}).Load(0) != 0 {
		t.Fatal("empty replay should be 0")
	}
	r := Replay{Samples: []float64{0.4}}
	if r.Load(sim.FromSeconds(99)) != 0.4 {
		t.Fatal("single sample replay should hold its value")
	}
}

func TestSweepLevels(t *testing.T) {
	f := FineSweepLevels()
	if len(f) < 20 {
		t.Fatalf("fine sweep too coarse: %d points", len(f))
	}
	for i := 1; i < len(f); i++ {
		if f[i] <= f[i-1] {
			t.Fatal("fine sweep not increasing")
		}
	}
	if f[0] != 0.01 {
		t.Fatalf("fine sweep starts at %v", f[0])
	}
}
