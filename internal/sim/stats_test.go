package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesNaive(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100, -3, 0.5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	mean := Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Fatalf("mean %v != %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-wantVar) > 1e-9 {
		t.Fatalf("var %v != %v", w.Var(), wantVar)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.CV() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Var())
	}
}

// TestWelfordCVNegativeMean pins the sign contract: the CV normalizes by
// |mean|, so a mirrored series has the same, non-negative CV.
func TestWelfordCVNegativeMean(t *testing.T) {
	var pos, neg Welford
	for _, x := range []float64{8, 10, 12} {
		pos.Add(x)
		neg.Add(-x)
	}
	if neg.CV() <= 0 {
		t.Fatalf("negative-mean CV = %v, want positive", neg.CV())
	}
	if math.Abs(neg.CV()-pos.CV()) > 1e-15 {
		t.Fatalf("CV not mirror-symmetric: %v vs %v", neg.CV(), pos.CV())
	}
	if got := CoV([]float64{-8, -10, -12}); math.Abs(got-pos.CV()) > 1e-15 {
		t.Fatalf("CoV(negative series) = %v, want %v", got, pos.CV())
	}
}

// TestWelfordCVZeroMean: a zero mean has no meaningful CV; the contract is 0.
func TestWelfordCVZeroMean(t *testing.T) {
	var w Welford
	w.Add(-1)
	w.Add(1)
	if w.CV() != 0 {
		t.Fatalf("zero-mean CV = %v, want 0", w.CV())
	}
	if CoV([]float64{-1, 1}) != 0 {
		t.Fatal("CoV of zero-mean series should be 0")
	}
}

func TestQuantileAgainstSortedDefinition(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Fatalf("median = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.9)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if Quantile(nil, 0.99) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		// Bounds: every quantile within [min, max].
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return Quantile(xs, 0.5) >= s[0] && Quantile(xs, 0.5) <= s[n-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	xs := []float64{1, 1, 1, 1}
	ys := []float64{1, 2, 3, 4}
	if r := Pearson(xs, ys); r != 0 {
		t.Fatalf("constant series should yield 0, got %v", r)
	}
}

func TestPearsonMismatchedLengths(t *testing.T) {
	if r := Pearson([]float64{1, 2}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("mismatched lengths should yield 0, got %v", r)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64() + 0.3*xs[i]
		}
		p := Pearson(xs, ys)
		return p >= -1 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
			ys[i] = r.Float64()
		}
		return math.Abs(Pearson(xs, ys)-Pearson(ys, xs)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoVScaleInvariant(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 7 * x
	}
	if math.Abs(CoV(xs)-CoV(scaled)) > 1e-12 {
		t.Fatalf("CoV not scale invariant: %v vs %v", CoV(xs), CoV(scaled))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp broken")
	}
}
