package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleMoments(d Lognormal, n int, seed uint64) (mean, cv float64) {
	r := NewRNG(seed)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(d.Sample(r))
	}
	return w.Mean(), w.CV()
}

func TestLognormalMoments(t *testing.T) {
	for _, tc := range []struct{ mean, cv float64 }{
		{1, 0.2}, {10, 0.5}, {0.003, 1.2}, {250, 0.05},
	} {
		d := NewLognormal(tc.mean, tc.cv)
		mean, cv := sampleMoments(d, 400000, 7)
		if math.Abs(mean-tc.mean)/tc.mean > 0.03 {
			t.Errorf("lognormal(%v,%v): sample mean %v", tc.mean, tc.cv, mean)
		}
		if tc.cv > 0 && math.Abs(cv-tc.cv)/tc.cv > 0.08 {
			t.Errorf("lognormal(%v,%v): sample cv %v", tc.mean, tc.cv, cv)
		}
	}
}

func TestLognormalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLognormal(0, 1) },
		func() { NewLognormal(-1, 1) },
		func() { NewLognormal(1, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLognormalQuantileMonotone(t *testing.T) {
	d := NewLognormal(5, 0.8)
	prev := 0.0
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		v := d.Quantile(q)
		if v <= prev {
			t.Fatalf("quantile not increasing at q=%v: %v <= %v", q, v, prev)
		}
		prev = v
	}
	// Median of a lognormal is exp(mu) < mean for cv > 0.
	if med := d.Quantile(0.5); med >= d.Mean() {
		t.Fatalf("median %v >= mean %v for right-skewed lognormal", med, d.Mean())
	}
}

func TestLognormalQuantileMatchesSamples(t *testing.T) {
	d := NewLognormal(2, 0.6)
	r := NewRNG(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	emp := Quantile(xs, 0.99)
	ana := d.Quantile(0.99)
	if math.Abs(emp-ana)/ana > 0.05 {
		t.Fatalf("p99 empirical %v vs analytic %v", emp, ana)
	}
}

func TestNormQuantileInverseOfCDF(t *testing.T) {
	// Known values of the standard normal quantile.
	cases := map[float64]float64{
		0.5:   0,
		0.975: 1.959964,
		0.99:  2.326348,
		0.999: 3.090232,
		0.025: -1.959964,
	}
	for p, want := range cases {
		got := NormQuantile(p)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("NormQuantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestNormQuantileSymmetry(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) / 2 // p in [0, 0.49)
		if p == 0 {
			return true
		}
		return math.Abs(NormQuantile(p)+NormQuantile(1-p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSamplesNonNegative(t *testing.T) {
	dists := []Lognormal{NewLognormal(1, 0.5), NewLognormal(0.003, 1.2)}
	r := NewRNG(31)
	for _, d := range dists {
		for i := 0; i < 10000; i++ {
			if v := d.Sample(r); v < 0 {
				t.Fatalf("%T produced negative sample %v", d, v)
			}
		}
	}
}
