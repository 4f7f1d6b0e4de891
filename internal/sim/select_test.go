package sim

import (
	"sort"
	"testing"
)

// oracleQuantile is the reference SelectQuantile is pinned against: a
// fresh sorted copy fed to QuantileSorted, exactly what the seed code did.
func oracleQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// TestSelectQuantileMatchesSortOracle pins selection to the sort oracle
// with exact float equality over randomized inputs and the adversarial
// shapes that break naive pivoting: heavy duplicates, pre-sorted,
// reversed, all-equal, and single-element inputs, across the quantiles
// the repo actually queries plus random ones.
func TestSelectQuantileMatchesSortOracle(t *testing.T) {
	r := NewRNG(0x5E1EC7)
	quantiles := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

	gen := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64()
			}
			return xs
		},
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(4))
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 3.25
			}
			return xs
		},
		"negative-mix": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64() - 0.5
			}
			return xs
		},
	}

	sizes := []int{1, 2, 3, 7, 100, 601, 2048}
	for name, g := range gen {
		for _, n := range sizes {
			for _, q := range quantiles {
				xs := g(n)
				want := oracleQuantile(xs, q)
				got := SelectQuantile(xs, q)
				if want != got {
					t.Fatalf("%s n=%d q=%v: SelectQuantile = %v, oracle = %v",
						name, n, q, got, want)
				}
			}
		}
	}

	// Randomized sizes and quantiles on top of the fixed grid.
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(700)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * float64(1+r.Intn(3))
		}
		q := r.Float64()
		want := oracleQuantile(xs, q)
		got := SelectQuantile(xs, q)
		if want != got {
			t.Fatalf("trial %d n=%d q=%v: SelectQuantile = %v, oracle = %v",
				trial, n, q, got, want)
		}
	}
}

// TestSelectRankMatchesSortOracle pins the rank entry point the tail
// tracker uses directly: any rank, with and without interpolation, over
// inputs with heavy duplicates, equals the sorted copy's order statistics
// run through QuantileSorted's interpolation expression.
func TestSelectRankMatchesSortOracle(t *testing.T) {
	r := NewRNG(0x5E1EC8)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(900)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(1 + r.Intn(50)))
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		k := r.Intn(n)
		frac := 0.0
		if k < n-1 && r.Intn(2) == 0 {
			frac = r.Float64()
		}
		want := sorted[k]
		if frac != 0 {
			want = sorted[k]*(1-frac) + sorted[k+1]*frac
		}
		if got := SelectRank(xs, k, frac); got != want {
			t.Fatalf("trial %d n=%d k=%d frac=%v: SelectRank = %v, oracle = %v", trial, n, k, frac, got, want)
		}
	}
}

// TestSelectQuantileEmpty matches Quantile's empty-input contract.
func TestSelectQuantileEmpty(t *testing.T) {
	if got := SelectQuantile(nil, 0.99); got != 0 {
		t.Fatalf("SelectQuantile(nil) = %v, want 0", got)
	}
}

// TestSelectQuantileZeroAllocs pins the selection path to zero heap
// allocations: it runs inside profiling sweeps that are themselves pinned
// allocation-free.
func TestSelectQuantileZeroAllocs(t *testing.T) {
	r := NewRNG(11)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = r.Float64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		SelectQuantile(xs, 0.99)
	})
	if allocs != 0 {
		t.Fatalf("SelectQuantile allocates %.1f per op, want 0", allocs)
	}
}
