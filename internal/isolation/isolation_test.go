package isolation

import (
	"math"
	"testing"

	"rhythm/internal/cluster"
)

func newAgent(t *testing.T) *Agent {
	t.Helper()
	m := cluster.NewMachine("m0", cluster.DefaultSpec())
	a := NewAgent(m, "MySQL")
	if err := a.PinLC(12, 8, 48, 1.0); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPinLC(t *testing.T) {
	a := newAgent(t)
	lc := a.Machine.LCAlloc()
	if lc == nil || lc.Cores != 12 || lc.LLCWays != 8 {
		t.Fatalf("LC alloc = %+v", lc)
	}
	if lc.FreqGHz != a.Machine.Spec.MaxGHz {
		t.Fatal("LC should start at nominal frequency")
	}
}

func TestLaunchBEInitialSlice(t *testing.T) {
	a := newAgent(t)
	if err := a.LaunchBE("wc-0"); err != nil {
		t.Fatal(err)
	}
	al := a.Machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: "wc-0"})
	// §3.5.2: one core, 10% LLC (2 of 20 ways), 2 GB.
	if al.Cores != 1 || al.LLCWays != 2 || al.MemoryGB != 2 {
		t.Fatalf("initial BE slice = %+v", al)
	}
}

func TestLaunchBEFailsWithoutHeadroom(t *testing.T) {
	m := cluster.NewMachine("m0", cluster.DefaultSpec())
	a := NewAgent(m, "pod")
	if err := a.PinLC(40, 18, 100, 1); err != nil {
		t.Fatal(err)
	}
	if a.CanLaunchBE() {
		t.Fatal("CanLaunchBE with no free cores")
	}
	err := a.LaunchBE("x")
	if err == nil {
		t.Fatal("launch should fail with no free cores")
	}
	const want = "isolation: no headroom on m0 for BE x (cores 0, ways 2, mem 156 GB free)"
	if got := err.Error(); got != want {
		t.Fatalf("refusal = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.LaunchBE("x") }); n != 0 {
		t.Fatalf("refused LaunchBE allocates %v times, want 0", n)
	}
}

func TestGrowAndCutBE(t *testing.T) {
	a := newAgent(t)
	if err := a.LaunchBE("b"); err != nil {
		t.Fatal(err)
	}
	o := cluster.Owner{Kind: cluster.OwnerBE, Name: "b"}
	if !a.GrowBE("b") {
		t.Fatal("grow failed with headroom available")
	}
	al := a.Machine.Alloc(o)
	if al.Cores != 2 || al.LLCWays != 4 {
		t.Fatalf("after grow: %+v", al)
	}
	if !a.CutBE("b") {
		t.Fatal("cut failed")
	}
	al = a.Machine.Alloc(o)
	if al.Cores != 1 || al.LLCWays != 2 {
		t.Fatalf("after cut: %+v", al)
	}
	// Cutting the minimal slice does nothing (keeps 1 core + 1 step).
	if a.CutBE("b") {
		t.Fatal("cut below minimum should report false")
	}
}

func TestGrowBoundedByCapacity(t *testing.T) {
	a := newAgent(t) // 28 free cores, 12 free ways
	if err := a.LaunchBE("b"); err != nil {
		t.Fatal(err)
	}
	grown := 0
	for a.GrowBE("b") {
		grown++
		if grown > 100 {
			t.Fatal("grow never saturated")
		}
	}
	if a.Machine.FreeCores() < 0 || a.Machine.FreeLLCWays() < 0 {
		t.Fatal("grow oversubscribed the machine")
	}
}

func TestGrowCutUnknownInstance(t *testing.T) {
	a := newAgent(t)
	if a.GrowBE("ghost") || a.CutBE("ghost") {
		t.Fatal("operations on unknown instance should fail")
	}
}

func TestKillBE(t *testing.T) {
	a := newAgent(t)
	if err := a.LaunchBE("b"); err != nil {
		t.Fatal(err)
	}
	free := a.Machine.FreeCores()
	a.KillBE("b")
	if a.Machine.FreeCores() != free+1 {
		t.Fatal("kill did not release cores")
	}
}

func TestAdjustBEMemory(t *testing.T) {
	a := newAgent(t)
	if err := a.LaunchBE("b"); err != nil {
		t.Fatal(err)
	}
	o := cluster.Owner{Kind: cluster.OwnerBE, Name: "b"}
	if !a.AdjustBEMemory("b", true) {
		t.Fatal("memory grow failed")
	}
	if got := a.Machine.Alloc(o).MemoryGB; math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("memory = %v, want 2.1", got)
	}
	if !a.AdjustBEMemory("b", false) {
		t.Fatal("memory shrink failed")
	}
	// Shrinking stops at the 0.5 GB floor.
	for i := 0; i < 100; i++ {
		a.AdjustBEMemory("b", false)
	}
	if got := a.Machine.Alloc(o).MemoryGB; got < 0.5-1e-9 {
		t.Fatalf("memory shrank below floor: %v", got)
	}
}

func TestSetBENetworkBudget(t *testing.T) {
	a := newAgent(t)
	for _, id := range []string{"b1", "b2"} {
		if err := a.LaunchBE(id); err != nil {
			t.Fatal(err)
		}
	}
	a.SetBENetwork(2.0) // budget = 10 - 2.4 = 7.6, split 3.8 each
	tot := a.Machine.BETotals()
	if math.Abs(tot.NetGbps-7.6) > 1e-9 {
		t.Fatalf("BE network total = %v, want 7.6", tot.NetGbps)
	}
	// LC traffic so heavy the budget clamps at zero.
	a.SetBENetwork(20)
	if got := a.Machine.BETotals().NetGbps; got != 0 {
		t.Fatalf("BE network under saturation = %v, want 0", got)
	}
	// No instances: no-op.
	a2 := newAgent(t)
	a2.SetBENetwork(1)
}

func TestDVFSStepping(t *testing.T) {
	a := newAgent(t)
	if err := a.LaunchBE("b"); err != nil {
		t.Fatal(err)
	}
	if got := a.BEFrequency(); got != a.Machine.Spec.MaxGHz {
		t.Fatalf("initial BE frequency = %v", got)
	}
	if !a.StepDownBEFrequency() {
		t.Fatal("step down failed")
	}
	if got := a.BEFrequency(); math.Abs(got-1.9) > 1e-9 {
		t.Fatalf("after one step: %v, want 1.9", got)
	}
	// Steps stop at the spec minimum.
	for i := 0; i < 100; i++ {
		a.StepDownBEFrequency()
	}
	if got := a.BEFrequency(); got < a.Machine.Spec.MinGHz-1e-9 {
		t.Fatalf("frequency below minimum: %v", got)
	}
	// Restore walks back up to nominal.
	for i := 0; i < 100; i++ {
		a.RestoreBEFrequency()
	}
	if got := a.BEFrequency(); math.Abs(got-a.Machine.Spec.MaxGHz) > 1e-9 {
		t.Fatalf("restore did not reach nominal: %v", got)
	}
	if a.RestoreBEFrequency() {
		t.Fatal("restore at nominal should be a no-op")
	}
}

func TestBEFrequencyWithoutInstances(t *testing.T) {
	a := newAgent(t)
	if got := a.BEFrequency(); got != a.Machine.Spec.MaxGHz {
		t.Fatalf("frequency with no BEs = %v", got)
	}
	if a.StepDownBEFrequency() {
		t.Fatal("step down with no BEs should be a no-op")
	}
}
