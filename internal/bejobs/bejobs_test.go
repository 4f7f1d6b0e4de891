package bejobs

import (
	"math"
	"testing"
	"testing/quick"

	"rhythm/internal/cluster"
)

func TestCatalogComplete(t *testing.T) {
	for _, ty := range Types() {
		s, err := Lookup(ty)
		if err != nil {
			t.Fatalf("missing catalog entry for %s: %v", ty, err)
		}
		if s.Type != ty {
			t.Errorf("%s: spec type mismatch %s", ty, s.Type)
		}
		if s.SoloCores <= 0 || s.SoloHours <= 0 || s.MemoryGB <= 0 {
			t.Errorf("%s: non-positive solo parameters %+v", ty, s)
		}
		if s.PerCore[cluster.ResCPU] != 1 {
			t.Errorf("%s: per-core CPU pressure should be 1", ty)
		}
	}
	if len(Types()) != 7 {
		t.Fatalf("Table 1 lists 7 BE jobs, catalog has %d", len(Types()))
	}
	if len(EvaluationTypes()) != 6 {
		t.Fatalf("evaluation grid uses 6 BE jobs, got %d", len(EvaluationTypes()))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("bitcoin-miner"); err == nil {
		t.Fatal("unknown type accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup should panic on unknown type")
		}
	}()
	MustLookup("bitcoin-miner")
}

func TestIntensityVariants(t *testing.T) {
	big := MustLookup(StreamDRAMBig)
	small := MustLookup(StreamDRAMSmall)
	if small.PerCore[cluster.ResMemBW] >= big.PerCore[cluster.ResMemBW] {
		t.Fatal("small stream-dram should exert less memBW pressure than big")
	}
	// Per §2: big saturates the machine's DRAM bandwidth when solo.
	solo := big.PerCore[cluster.ResMemBW] * float64(big.SoloCores)
	if solo < cluster.DefaultSpec().MemBWGBs {
		t.Fatalf("stream-dram(big) solo pressure %v should saturate %v GB/s",
			solo, cluster.DefaultSpec().MemBWGBs)
	}
	lb, ls := MustLookup(StreamLLCBig), MustLookup(StreamLLCSmall)
	if ls.PerCore[cluster.ResLLC] >= lb.PerCore[cluster.ResLLC] {
		t.Fatal("small stream-llc should want fewer ways than big")
	}
	if got := lb.PerCore[cluster.ResLLC] * float64(lb.SoloCores); got < float64(cluster.DefaultSpec().LLCWays) {
		t.Fatalf("stream-llc(big) solo occupancy %v should cover the %d ways",
			got, cluster.DefaultSpec().LLCWays)
	}
}

func TestIntensiveColumnsMatchPressure(t *testing.T) {
	// The synthetic benchmarks must dominate their declared dimension.
	cs := MustLookup(CPUStress)
	if cs.PerCore[cluster.ResMemBW] > 1 || cs.PerCore[cluster.ResNetBW] > 0 {
		t.Error("CPU-stress should exert little non-CPU pressure")
	}
	ip := MustLookup(Iperf)
	if ip.PerCore[cluster.ResNetBW] <= 1 {
		t.Error("iperf should exert strong network pressure")
	}
	sd := MustLookup(StreamDRAM)
	if sd.PerCore[cluster.ResMemBW] <= MustLookup(Wordcount).PerCore[cluster.ResMemBW] {
		t.Error("stream-dram should exert more memBW pressure per core than wordcount")
	}
}

func TestInstanceLifecycle(t *testing.T) {
	in, err := NewInstance("wc-0", Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	if in.State != Running {
		t.Fatal("new instance should run")
	}
	// A full solo grant for SoloHours should complete exactly one job.
	done := in.Advance(1.0, in.Spec.SoloHours)
	if done != 1 || in.Completions != 1 {
		t.Fatalf("done=%d completions=%d, want 1", done, in.Completions)
	}
	if in.Progress > 1e-9 {
		t.Fatalf("progress should wrap to ~0, got %v", in.Progress)
	}
}

func TestSuspendedInstanceIsInert(t *testing.T) {
	in, _ := NewInstance("ls-0", LSTM)
	in.State = Suspended
	if d := in.Demand(8); d != (cluster.Vector{}) {
		t.Fatalf("suspended demand = %v, want zero", d)
	}
	if r := in.Rate(8, 1); r != 0 {
		t.Fatalf("suspended rate = %v, want 0", r)
	}
	if in.Advance(1, 10) != 0 {
		t.Fatal("suspended instance advanced")
	}
}

func TestDemandScalesWithCores(t *testing.T) {
	in, _ := NewInstance("sd-0", StreamDRAM)
	d4 := in.Demand(4)
	d8 := in.Demand(8)
	for r := 0; r < cluster.NumResources; r++ {
		if math.Abs(d8[r]-2*d4[r]) > 1e-12 {
			t.Fatalf("demand not linear in cores at resource %d", r)
		}
	}
	if in.Demand(0) != (cluster.Vector{}) {
		t.Fatal("zero cores should mean zero demand")
	}
}

func TestRateProperties(t *testing.T) {
	f := func(seed int64) bool {
		in, _ := NewInstance("x", CPUStress)
		cores := int(uint64(seed)%40) + 1
		sat := math.Mod(math.Abs(float64(seed))/1e9, 1.5) // may exceed 1
		r := in.Rate(cores, sat)
		// Rate is non-negative and capped by cores/SoloCores.
		return r >= 0 && r <= float64(cores)/float64(in.Spec.SoloCores)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateFullMachineIsUnity(t *testing.T) {
	in, _ := NewInstance("x", LSTM)
	r := in.Rate(in.Spec.SoloCores, 1)
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("solo-equivalent grant should run at rate 1, got %v", r)
	}
}

func TestAdvanceMultipleCompletions(t *testing.T) {
	in, _ := NewInstance("cs-0", CPUStress) // SoloHours = 0.5
	done := in.Advance(1.0, 1.6)            // 3.2 job-units
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
	if math.Abs(in.Progress-0.2) > 1e-9 {
		t.Fatalf("progress = %v, want 0.2", in.Progress)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Running: "running", Suspended: "suspended", Killed: "killed", Finished: "finished",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(42).String() != "state(42)" {
		t.Error("unknown state string")
	}
}

func TestAllIncludesVariants(t *testing.T) {
	if len(catalog) != 11 { // 7 base + 4 intensity variants
		t.Fatalf("catalog has %d entries, want 11", len(catalog))
	}
	for typ := range catalog {
		if _, err := Lookup(typ); err != nil {
			t.Fatalf("Lookup(%s): %v", typ, err)
		}
	}
}
