package interference

import (
	"math"
	"testing"
	"testing/quick"

	"rhythm/internal/bejobs"
	"rhythm/internal/cluster"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func spec() cluster.MachineSpec { return cluster.DefaultSpec() }

func mysql() *workload.Component  { return workload.ECommerce().Component("MySQL") }
func tomcat() *workload.Component { return workload.ECommerce().Component("Tomcat") }

func TestPressureZeroWithoutBE(t *testing.T) {
	m := Default()
	p := m.Pressure(spec(), mysql().DemandAt(0.5), cluster.Vector{})
	if p != (cluster.Vector{}) {
		t.Fatalf("pressure without BE = %v, want zero", p)
	}
}

func TestPressureGrowsWithBEDemand(t *testing.T) {
	m := Default()
	lc := mysql().DemandAt(0.5)
	small := bejobs.MustLookup(bejobs.StreamDRAM).PerCore.Scale(2)
	big := bejobs.MustLookup(bejobs.StreamDRAM).PerCore.Scale(8)
	ps := m.Pressure(spec(), lc, small)
	pb := m.Pressure(spec(), lc, big)
	if pb[cluster.ResMemBW] <= ps[cluster.ResMemBW] {
		t.Fatal("more BE cores should mean more memBW pressure")
	}
}

func TestPressureGrowsWithLCLoad(t *testing.T) {
	// Higher LC load shrinks headroom, so the same BE demand presses harder.
	m := Default()
	be := bejobs.MustLookup(bejobs.StreamDRAM).PerCore.Scale(6)
	lo := m.Pressure(spec(), mysql().DemandAt(0.2), be)
	hi := m.Pressure(spec(), mysql().DemandAt(0.95), be)
	if hi[cluster.ResMemBW] <= lo[cluster.ResMemBW] {
		t.Fatal("pressure should grow as LC load consumes headroom")
	}
}

func TestPressureCapped(t *testing.T) {
	m := Default()
	huge := bejobs.MustLookup(bejobs.StreamDRAM).PerCore.Scale(1000)
	p := m.Pressure(spec(), mysql().DemandAt(0.9), huge)
	for r := 0; r < cluster.NumResources; r++ {
		if p[r] > m.PressureCap {
			t.Fatalf("pressure[%d] = %v exceeds cap %v", r, p[r], m.PressureCap)
		}
		if p[r] < 0 {
			t.Fatalf("negative pressure[%d] = %v", r, p[r])
		}
	}
}

func TestIsolationReducesPressure(t *testing.T) {
	be := bejobs.MustLookup(bejobs.StreamLLC).PerCore.Scale(8)
	lc := mysql().DemandAt(0.5)
	iso := Default().Pressure(spec(), lc, be)
	raw := Unisolated().Pressure(spec(), lc, be)
	if iso[cluster.ResLLC] >= raw[cluster.ResLLC] {
		t.Fatal("CAT should reduce LLC pressure")
	}
	if iso[cluster.ResCPU] >= raw[cluster.ResCPU] {
		t.Fatal("cpuset should reduce CPU pressure")
	}
	// Memory bandwidth has no partitioning: identical either way (§4).
	if math.Abs(iso[cluster.ResMemBW]-raw[cluster.ResMemBW]) > 1e-12 {
		t.Fatal("memBW pressure should be unaffected by isolation")
	}
}

func TestInflationRespectsSensitivityOrdering(t *testing.T) {
	// The Fig. 2b headline: under stream-dram(big), MySQL inflates far
	// more than Tomcat.
	m := Unisolated()
	be := bejobs.MustLookup(bejobs.StreamDRAMBig)
	press := m.Pressure(spec(), mysql().DemandAt(0.6), be.PerCore.Scale(float64(be.SoloCores)))
	infMy, _ := m.Inflation(mysql(), press)
	pressT := m.Pressure(spec(), tomcat().DemandAt(0.6), be.PerCore.Scale(float64(be.SoloCores)))
	infTo, _ := m.Inflation(tomcat(), pressT)
	if infMy <= infTo {
		t.Fatalf("MySQL inflation %v should exceed Tomcat %v under stream-dram", infMy, infTo)
	}
	if infMy < 1.5 {
		t.Fatalf("stream-dram(big) should hurt MySQL substantially, got %v", infMy)
	}
}

func TestInflationAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		m := Default()
		var be cluster.Vector
		for i := range be {
			be[i] = r.Float64() * 100
		}
		press := m.Pressure(spec(), mysql().DemandAt(r.Float64()), be)
		inf, cv := m.Inflation(mysql(), press)
		return inf >= 1 && cv >= 1 && cv <= m.CVCap && !math.IsNaN(inf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInflationMonotoneInPressure(t *testing.T) {
	m := Default()
	var lo, hi cluster.Vector
	lo[cluster.ResMemBW] = 0.3
	hi[cluster.ResMemBW] = 0.9
	infLo, cvLo := m.Inflation(mysql(), lo)
	infHi, cvHi := m.Inflation(mysql(), hi)
	if infHi <= infLo || cvHi <= cvLo {
		t.Fatal("inflation should grow with pressure")
	}
}

func TestSuperlinearity(t *testing.T) {
	// Doubling pressure should more than double the added inflation
	// (gamma > 1): the Fig. 2 big-vs-small intensity gap.
	m := Default()
	var p1, p2 cluster.Vector
	p1[cluster.ResMemBW] = 0.4
	p2[cluster.ResMemBW] = 0.8
	i1, _ := m.Inflation(mysql(), p1)
	i2, _ := m.Inflation(mysql(), p2)
	if (i2 - 1) <= 2*(i1-1) {
		t.Fatalf("contention not superlinear: %v vs %v", i2-1, i1-1)
	}
}

func TestFreqInflation(t *testing.T) {
	c := tomcat() // FreqSens = 2.0
	if got := FreqInflation(c, 2.0, 2.0); got != 1 {
		t.Fatalf("nominal frequency should not inflate: %v", got)
	}
	if got := FreqInflation(c, 1.0, 2.0); math.Abs(got-4) > 1e-9 {
		t.Fatalf("half frequency with exponent 2 should inflate 4x: %v", got)
	}
	// MySQL (FreqSens 0.9) is much less DVFS sensitive (Fig. 2b).
	if FreqInflation(mysql(), 1.0, 2.0) >= FreqInflation(c, 1.0, 2.0) {
		t.Fatal("Tomcat must be more DVFS sensitive than MySQL")
	}
	// Degenerate inputs clamp to 1.
	if FreqInflation(c, 0, 2) != 1 || FreqInflation(c, 3, 2) != 1 {
		t.Fatal("degenerate frequencies should clamp")
	}
}

func TestPowerDraw(t *testing.T) {
	s := spec()
	idle := PowerDraw(s, cluster.Vector{}, cluster.Vector{})
	if idle <= 0 || idle >= s.TDPWatts {
		t.Fatalf("idle draw %v out of range", idle)
	}
	be := bejobs.MustLookup(bejobs.CPUStress).PerCore.Scale(30)
	busy := PowerDraw(s, mysql().DemandAt(1), be)
	if busy <= idle {
		t.Fatal("load should increase power draw")
	}
}

func TestLCNearSaturationFloor(t *testing.T) {
	// When LC demand exceeds capacity headroom, pressure uses the 5%
	// floor rather than dividing by ~zero or negative headroom.
	m := Default()
	var lc cluster.Vector
	lc[cluster.ResMemBW] = spec().MemBWGBs * 1.5 // oversaturated
	var be cluster.Vector
	be[cluster.ResMemBW] = 5
	p := m.Pressure(spec(), lc, be)
	if p[cluster.ResMemBW] <= 0 || math.IsInf(p[cluster.ResMemBW], 0) || p[cluster.ResMemBW] > m.PressureCap {
		t.Fatalf("saturated-headroom pressure = %v", p[cluster.ResMemBW])
	}
}

// TestInflationMemoMatchesInflation holds the memoized, batched map to
// the plain one bit for bit, the way the engine drives it: blocks of up
// to 32 ticks queue their moved pressures (Moved), raise them in one
// Powers call, then settle and read them tick by tick. Each resource's
// pressure repeats, moves, drops to zero and comes back, as a machine's
// pressure does between ticks.
func TestInflationMemoMatchesInflation(t *testing.T) {
	m := Default()
	r := sim.NewRNG(6)
	var pm PowMemo
	var press cluster.Vector
	for block := 0; block < 500; block++ {
		n := 1 + r.Intn(32)
		ticks := make([]cluster.Vector, n)
		masks := make([]uint8, n)
		var x []float64
		for k := range ticks {
			for i := range press {
				switch r.Intn(4) {
				case 0:
					press[i] = m.PressureCap * r.Float64()
				case 1:
					press[i] = 0
				}
			}
			ticks[k] = press
			x, masks[k] = pm.Moved(&ticks[k], x)
		}
		y := make([]float64, len(x))
		m.Powers(y, x)
		for k := range ticks {
			y = pm.Settle(masks[k], y)
			gotInf, gotCV := m.InflationMemo(mysql(), &ticks[k], &pm)
			wantInf, wantCV := m.Inflation(mysql(), ticks[k])
			if math.Float64bits(gotInf) != math.Float64bits(wantInf) || math.Float64bits(gotCV) != math.Float64bits(wantCV) {
				t.Fatalf("block %d tick %d: memoized (%v, %v), plain (%v, %v)", block, k, gotInf, gotCV, wantInf, wantCV)
			}
		}
		if len(y) != 0 {
			t.Fatalf("block %d: %d powers left unsettled", block, len(y))
		}
	}
}

// FuzzPowLanes holds Model.Powers (sim.PowLanes) to math.Pow bit for bit:
// the fuzzed x planted among n lanes (1 to 40) of pressures in (0, 2]
// drawn from seed, raised to the fuzzed y and to each shipped exponent —
// the model's γ, 0.5, 2, 2.5, -1.3 and every catalog component's
// FreqSens. The seed corpus covers the edge x values: subnormal, 1, huge,
// NaN and ±Inf.
func FuzzPowLanes(f *testing.F) {
	for _, x := range []float64{1.37, 5e-324, 1, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1022, 0} {
		f.Add(uint64(2020), x, 1.8, uint8(20))
	}
	f.Add(uint64(7), 0.9, -300.5, uint8(16))
	ys := []float64{Default().Gamma, 0.5, 2, 2.5, -1.3}
	for _, svc := range workload.Services() {
		for _, c := range svc.Components {
			ys = append(ys, c.FreqSens)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, x, y float64, width uint8) {
		n := int(width%40) + 1
		r := sim.NewRNG(seed)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = 2 * (1 - r.Float64())
		}
		xs[r.Intn(n)] = x
		got := make([]float64, n)
		for _, y := range append(ys, y) {
			m := Model{Gamma: y}
			m.Powers(got, xs)
			for j, v := range xs {
				if want := math.Pow(v, y); math.Float64bits(got[j]) != math.Float64bits(want) && !(math.IsNaN(got[j]) && math.IsNaN(want)) {
					t.Fatalf("Pow(%v, %v) lane %d of %d: Powers %x, math.Pow %x", v, y, j, n, math.Float64bits(got[j]), math.Float64bits(want))
				}
			}
		}
	})
}
