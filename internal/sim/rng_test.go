package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Fork("machine-0")
	a2 := NewRNG(7).Fork("machine-0")
	// Same label yields the same stream; different labels diverge.
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("fork with same label diverged at %d", i)
		}
	}
	c := NewRNG(7).Fork("machine-0")
	d := NewRNG(7).Fork("machine-1")
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forks with different labels matched %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", w.Mean())
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", w.Mean())
	}
	if math.Abs(w.Std()-1) > 0.02 {
		t.Fatalf("normal std = %v, want ~1", w.Std())
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(17)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.ExpFloat64())
	}
	if math.Abs(w.Mean()-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", w.Mean())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(19)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d never produced", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Shuffle randomizes the order of n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d != %d", got, sum)
	}
}

func TestSubSeedMatchesFork(t *testing.T) {
	for _, label := range []string{"", "level/0", "trial/3/1", "experiment/fig9"} {
		forked := NewRNG(2020).Fork(label)
		seeded := NewRNG(SubSeed(2020, label))
		for i := 0; i < 50; i++ {
			if forked.Uint64() != seeded.Uint64() {
				t.Fatalf("SubSeed(%q) stream diverged from Fork at step %d", label, i)
			}
		}
	}
	if SubSeed(2020, "a") == SubSeed(2020, "b") {
		t.Fatal("different labels produced the same subseed")
	}
	if SubSeed(1, "a") == SubSeed(2, "a") {
		t.Fatal("different parents produced the same subseed")
	}
}
