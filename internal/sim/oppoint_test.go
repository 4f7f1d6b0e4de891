package sim

import (
	"fmt"
	"math"
	"testing"
)

// The operating-point kernels against their scalar references, bit for
// bit. The Pow and fit tests first check the exported batch at the host's
// tier (the kernel where the host runs TierAVX512, the Go loop
// elsewhere), then, at TierAVX512 only, that the kernel itself accepted
// the in-range blocks, so a kernel that bails on every block cannot pass
// as a match. Below TierAVX512 each test logs SKIP.

// erlangBScalar is the scalar Erlang-B recursion the kernel reproduces:
// queueing's erlangBStep from B(0) = 1.
func erlangBScalar(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// sameOrNaN is sameBits, with any two NaNs equal: the kernels' NaN
// payloads are not part of the contract.
func sameOrNaN(a, b float64) bool { return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b) }

func TestErlangBKernelMatchesScalar(t *testing.T) {
	if hostTier < TierAVX512 {
		if done := ErlangBBlocks(8, make([]float64, 16), make([]float64, 16)); done != 0 {
			t.Fatalf("no kernel at tier %v, but %d lanes done", hostTier, done)
		}
		t.Skipf("no avx512 kernels on this host or build (tier %v)", hostTier)
	}
	r := NewRNG(27)
	for _, c := range []int{0, 1, 2, 7, 8, 64, 172, 1000} {
		for n := 1; n <= 40; n++ {
			a := make([]float64, n)
			for j := range a {
				switch r.Intn(8) {
				case 0:
					a[j] = 0
				case 1:
					a[j] = float64(c) * (0.9 + 0.085*r.Float64()) // near the utilization cap
				case 2:
					a[j] = []float64{5e-324, 1e-300, 1e300, math.Inf(1), math.NaN()}[r.Intn(5)]
				default:
					a[j] = float64(c) * r.Float64()
				}
			}
			b := make([]float64, n)
			done := ErlangBBlocks(c, a, b)
			if want := n / 8 * 8; done != want {
				t.Fatalf("c=%d n=%d: kernel did %d lanes, want %d", c, n, done, want)
			}
			for j := 0; j < done; j++ {
				if want := erlangBScalar(c, a[j]); !sameOrNaN(b[j], want) {
					t.Fatalf("c=%d n=%d lane %d (a=%v): kernel %x (%v), scalar %x (%v)",
						c, n, j, a[j], math.Float64bits(b[j]), b[j], math.Float64bits(want), want)
				}
			}
		}
	}
}

// powExponents are the exponents the Pow tests run: the interference
// model's γ, exponents on every branch of powSplit and of the kernel (yf
// adjusted or not, yi zero, one or several bits, y negative), and the
// special cases PowLanes leaves to math.Pow.
var powExponents = []float64{1.8, 2.5, -1.3, 0.3, 0.7, 1.5, 3.25, 17.9, -0.2, -7.6, 1e-9, 1023.4,
	0.5, -0.5, 2, 1, 0, -3, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}

// powEdges are x values at and around the kernel's lane tests and the
// scalar code's branches: 0, subnormals, the smallest normal, 1 and its
// neighbours, huge, non-finite and negative values.
var powEdges = []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 0x1p-1022, math.Nextafter(0x1p-1022, 1),
	math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 2, math.MaxFloat64, 1e300, 1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), -1, -0.5, math.Sqrt2 / 2, 0.5}

// checkPowLanes holds PowLanes(·, x, y) to math.Pow lane by lane.
func checkPowLanes(t *testing.T, x []float64, y float64) {
	t.Helper()
	got := make([]float64, len(x))
	PowLanes(got, x, y)
	for j, v := range x {
		if want := math.Pow(v, y); !sameOrNaN(got[j], want) {
			t.Fatalf("Pow(%v, %v) lane %d of %d: PowLanes %x (%v), math.Pow %x (%v)",
				v, y, j, len(x), math.Float64bits(got[j]), got[j], math.Float64bits(want), want)
		}
	}
}

func TestPowKernelMatchesScalar(t *testing.T) {
	r := NewRNG(1800)
	dense := make([]float64, 1<<16)
	for _, y := range powExponents {
		for i := range dense {
			dense[i] = 2 * (1 - r.Float64()) // (0, 2], the pressure range
		}
		checkPowLanes(t, dense, y)
		for n := 1; n <= 33; n++ {
			x := append([]float64(nil), dense[:n]...)
			x[r.Intn(n)] = powEdges[r.Intn(len(powEdges))]
			checkPowLanes(t, x, y)
		}
		checkPowLanes(t, powEdges, y)
	}

	// Wide magnitudes, where the squaring loop's exponent guard and the
	// normal-range test of the result decide.
	wide := make([]float64, 4096)
	for _, y := range []float64{1.8, 300.5, -300.5, 1023.4, 0.3} {
		for i := range wide {
			wide[i] = math.Ldexp(1+r.Float64(), r.Intn(2100)-1060)
		}
		checkPowLanes(t, wide, y)
	}

	if hostTier < TierAVX512 {
		t.Skipf("no avx512 kernels on this host or build (tier %v): PowLanes checked on the scalar path", hostTier)
	}
	yi, yf, _ := powSplit(1.8)
	out := make([]float64, len(dense))
	if n := powAVX512(out, dense, yf, yi, false); n != len(dense) {
		t.Fatalf("pow kernel stopped at %d of %d in-range lanes (x=%v)", n, len(dense), dense[n:n+8])
	}
}

// TestPowSplit pins powSplit to math.Pow's branch structure: y values
// math.Pow answers before its general path, and integers, are declined.
func TestPowSplit(t *testing.T) {
	for _, y := range []float64{0, 1, 0.5, -0.5, 2, -3, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, _, ok := powSplit(y); ok {
			t.Errorf("powSplit(%v) took the general path", y)
		}
	}
	for _, c := range []struct {
		y  float64
		yi uint64
		yf float64
	}{{1.8, 2, -0.19999999999999996}, {2.5, 2, 0.5}, {-1.3, 1, 0.30000000000000004}, {0.7, 1, -0.30000000000000004}, {0.3, 0, 0.3}} {
		yi, yf, ok := powSplit(c.y)
		if !ok || yi != c.yi || !sameBits(yf, c.yf) {
			t.Errorf("powSplit(%v) = %d, %v, %v; want %d, %v, true", c.y, yi, yf, ok, c.yi, c.yf)
		}
	}
}

// checkFit holds NewLognormals over (mean, cv) to NewLognormal lane by
// lane, panics included: both or neither.
func checkFit(t *testing.T, mean, cv []float64) {
	t.Helper()
	got := make([]Lognormal, len(mean))
	var lanePanic, scalarPanic any
	func() {
		defer func() { lanePanic = recover() }()
		NewLognormals(got, mean, cv)
	}()
	for j := range mean {
		var want Lognormal
		func() {
			defer func() { scalarPanic = recover() }()
			want = NewLognormal(mean[j], cv[j])
		}()
		if scalarPanic != nil {
			break
		}
		if lanePanic != nil {
			continue
		}
		gm, gs := got[j].LogParams()
		wm, ws := want.LogParams()
		if !sameOrNaN(gm, wm) || !sameOrNaN(gs, ws) || !sameOrNaN(got[j].Mean(), want.Mean()) || !sameOrNaN(got[j].CV(), want.CV()) {
			t.Fatalf("lane %d of %d (mean %v, cv %v): NewLognormals (%v, %v), NewLognormal (%v, %v)",
				j, len(mean), mean[j], cv[j], gm, gs, wm, ws)
		}
	}
	if (lanePanic != nil) != (scalarPanic != nil) || lanePanic != nil && fmt.Sprint(lanePanic) != fmt.Sprint(scalarPanic) {
		t.Fatalf("NewLognormals panicked %v, NewLognormal panicked %v", lanePanic, scalarPanic)
	}
}

func TestFitKernelMatchesScalar(t *testing.T) {
	r := NewRNG(2)
	edgesMean := []float64{5e-324, 1e-310, 0x1p-1022, 1e-9, 1, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(), 0, -1}
	edgesCV := []float64{0, math.Copysign(0, -1), 5e-324, 1e-160, 2, 1e150, 1.4e154, 1e200, math.Inf(1), math.NaN(), -0.1}
	for n := 1; n <= 70; n++ {
		mean := make([]float64, n)
		cv := make([]float64, n)
		for j := range mean {
			mean[j] = 1e-4 + 0.1*r.Float64()
			cv[j] = 2 * r.Float64()
		}
		checkFit(t, mean, cv)
		for _, e := range edgesMean {
			m := append([]float64(nil), mean...)
			m[r.Intn(n)] = e
			checkFit(t, m, cv)
		}
		for _, e := range edgesCV {
			c := append([]float64(nil), cv...)
			c[r.Intn(n)] = e
			checkFit(t, mean, c)
		}
	}

	if hostTier < TierAVX512 {
		t.Skipf("no avx512 kernels on this host or build (tier %v): NewLognormals checked on the scalar path", hostTier)
	}
	mean, cv := make([]float64, 32), make([]float64, 32)
	for j := range mean {
		mean[j], cv[j] = 1e-3*float64(j+1), 0.1*float64(j)
	}
	var mu, sigma [32]float64
	if n := lognormalFitAVX512(mu[:], sigma[:], mean, cv); n != 32 {
		t.Fatalf("fit kernel stopped at %d of 32 in-range lanes", n)
	}
}

// FuzzLognormalFit holds NewLognormals to NewLognormal on arbitrary
// means and CVs: the fuzzed pair planted at every position of a batch of
// n lanes (1 to 40) among in-range neighbours.
func FuzzLognormalFit(f *testing.F) {
	f.Add(0.004, 0.5, uint8(20))
	f.Add(5e-324, 0.0, uint8(8))
	f.Add(1.0, 1.4e154, uint8(16))
	f.Add(math.Inf(1), 0.3, uint8(9))
	f.Add(-1.0, 0.3, uint8(8))
	f.Add(0.01, -0.5, uint8(24))
	f.Fuzz(func(t *testing.T, m, c float64, width uint8) {
		n := int(width%40) + 1
		for pos := 0; pos < n; pos++ {
			mean := make([]float64, n)
			cv := make([]float64, n)
			for j := range mean {
				mean[j], cv[j] = 0.001*float64(j+1), 0.05*float64(j)
			}
			mean[pos], cv[pos] = m, c
			checkFit(t, mean, cv)
		}
	})
}
