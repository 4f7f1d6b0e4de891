package cluster

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rhythm/internal/sim"
)

func lc(name string) Owner { return Owner{Kind: OwnerLC, Name: name} }
func be(name string) Owner { return Owner{Kind: OwnerBE, Name: name} }

func TestGrantAndFree(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(lc("mysql"), Alloc{Cores: 16, LLCWays: 10, MemoryGB: 64}); err != nil {
		t.Fatal(err)
	}
	if err := m.Grant(be("wc-1"), Alloc{Cores: 4, LLCWays: 2, MemoryGB: 2}); err != nil {
		t.Fatal(err)
	}
	if m.FreeCores() != 20 {
		t.Fatalf("free cores = %d, want 20", m.FreeCores())
	}
	if m.FreeLLCWays() != 8 {
		t.Fatalf("free ways = %d, want 8", m.FreeLLCWays())
	}
	if m.FreeMemoryGB() != 190 {
		t.Fatalf("free mem = %v, want 190", m.FreeMemoryGB())
	}
}

func TestGrantRejectsOversubscription(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(lc("a"), Alloc{Cores: 30}); err != nil {
		t.Fatal(err)
	}
	err := m.Grant(be("b"), Alloc{Cores: 11})
	if err == nil {
		t.Fatal("expected oversubscription error")
	}
	if !strings.Contains(err.Error(), "oversubscribes") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Ledger unchanged after the failed grant.
	if m.Alloc(be("b")) != nil {
		t.Fatal("failed grant left residue")
	}
	if m.FreeCores() != 10 {
		t.Fatalf("free cores = %d, want 10", m.FreeCores())
	}
}

func TestGrantReplaceRollsBackOnFailure(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(be("b"), Alloc{Cores: 5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Grant(be("b"), Alloc{Cores: 100}); err == nil {
		t.Fatal("expected failure")
	}
	if got := m.Alloc(be("b")).Cores; got != 5 {
		t.Fatalf("rollback failed: cores = %d, want 5", got)
	}
}

func TestGrantRejectsNegative(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(be("b"), Alloc{Cores: -1}); err == nil {
		t.Fatal("negative cores accepted")
	}
	if err := m.Grant(be("b"), Alloc{MemBWGBs: -0.5}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestGrantRejectsBadFrequency(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(lc("a"), Alloc{Cores: 1, FreqGHz: 3.5}); err == nil {
		t.Fatal("over-max frequency accepted")
	}
	if err := m.Grant(lc("a"), Alloc{Cores: 1, FreqGHz: 0.4}); err == nil {
		t.Fatal("under-min frequency accepted")
	}
	if err := m.Grant(lc("a"), Alloc{Cores: 1, FreqGHz: 1.5}); err != nil {
		t.Fatalf("valid frequency rejected: %v", err)
	}
	// Zero means "unset" and is allowed.
	if err := m.Grant(be("b"), Alloc{Cores: 1}); err != nil {
		t.Fatalf("zero frequency rejected: %v", err)
	}
}

func TestRelease(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(be("b"), Alloc{Cores: 10}); err != nil {
		t.Fatal(err)
	}
	m.Release(be("b"))
	if m.FreeCores() != 40 {
		t.Fatalf("free cores = %d after release", m.FreeCores())
	}
	m.Release(be("absent")) // no-op
}

func TestOwnersSortedDeterministically(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	for _, n := range []string{"z", "a", "q"} {
		if err := m.Grant(be(n), Alloc{Cores: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Grant(lc("pod"), Alloc{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	want := []Owner{lc("pod"), be("a"), be("q"), be("z")}
	if !reflect.DeepEqual(m.owners, want) || m.lcCount != 1 {
		t.Fatalf("owners = %v (lc prefix %d), want %v", m.owners, m.lcCount, want)
	}
	for i, o := range m.owners {
		if m.ownerAllocs[i] != m.Alloc(o) {
			t.Fatalf("ledger row %d (%v) holds a different *Alloc than Alloc returns", i, o)
		}
	}
	if got := m.BEOwnersView(); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("BE owners = %v, want %v", got, want[1:])
	}
}

func TestBETotalsExcludesLC(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	if err := m.Grant(lc("pod"), Alloc{Cores: 20, LLCWays: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Grant(be("b1"), Alloc{Cores: 3, LLCWays: 2, MemoryGB: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Grant(be("b2"), Alloc{Cores: 2, LLCWays: 1, MemoryGB: 2}); err != nil {
		t.Fatal(err)
	}
	tot := m.BETotals()
	if tot.Cores != 5 || tot.LLCWays != 3 || tot.MemoryGB != 4 {
		t.Fatalf("BE totals = %+v", tot)
	}
	if got := m.Alloc(lc("pod")); got == nil || got.Cores != 20 {
		t.Fatalf("LC alloc = %+v", got)
	}
	if n := len(m.BEOwnersView()); n != 2 {
		t.Fatalf("BE owners = %d, want 2", n)
	}
}

// Property: a sequence of random grants/releases never leaves the ledger
// oversubscribed, Alloc agrees with a reference map after every step, and
// a failed grant changes neither.
func TestLedgerInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		m := NewMachine("m0", DefaultSpec())
		ref := map[Owner]Alloc{}
		owners := []Owner{lc("pod"), be("a"), be("b"), be("c"), be("d"), be("e")}
		for i := 0; i < 200; i++ {
			o := owners[r.Intn(len(owners))]
			if r.Float64() < 0.3 {
				m.Release(o)
				delete(ref, o)
			} else {
				a := Alloc{
					Cores:    r.Intn(30),
					LLCWays:  r.Intn(15),
					MemoryGB: float64(r.Intn(100)),
					NetGbps:  r.Float64() * 5,
				}
				if m.Grant(o, a) == nil {
					ref[o] = a
				}
			}
			if m.FreeCores() < 0 || m.FreeLLCWays() < 0 ||
				m.FreeMemoryGB() < -1e-9 || m.FreeNetGbps() < -1e-9 {
				return false
			}
			if len(m.owners) != len(ref) {
				return false
			}
			for _, o := range owners {
				want, ok := ref[o]
				got := m.Alloc(o)
				if ok != (got != nil) || ok && *got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerZeroAllocs pins the control-tick ledger operations to zero
// allocations: a lookup, a re-grant of an existing owner, and a failed
// headroom probe.
func TestLedgerZeroAllocs(t *testing.T) {
	m := NewMachine("m0", DefaultSpec())
	for _, o := range []Owner{lc("pod"), be("a"), be("b")} {
		if err := m.Grant(o, Alloc{Cores: 4, LLCWays: 2}); err != nil {
			t.Fatal(err)
		}
	}
	held := m.Alloc(be("a"))
	cores := 4
	for name, fn := range map[string]func(){
		"Alloc": func() { _ = m.Alloc(be("b")) },
		"re-grant": func() {
			cores = 9 - cores // alternate 4 and 5
			if err := m.Grant(be("a"), Alloc{Cores: cores, LLCWays: 2}); err != nil {
				t.Fatal(err)
			}
		},
		"failed probe": func() {
			if m.Grant(be("b"), Alloc{Cores: 100}) == nil {
				t.Fatal("oversubscribing grant accepted")
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	// A held pointer reads the current grant after re-grants.
	if held != m.Alloc(be("a")) || held.Cores != cores {
		t.Fatalf("held alloc = %+v, want the current grant (%d cores)", held, cores)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Add(Vector{1, 1, 1}).Scale(2)
	if w[0] != 4 || w[1] != 6 || w[2] != 8 {
		t.Fatalf("vector ops: %v", w)
	}
	// Add/Scale are value ops: v unchanged.
	if v[0] != 1 {
		t.Fatal("vector mutated")
	}
}

func TestResourceString(t *testing.T) {
	names := map[Resource]string{
		ResCPU: "cpu", ResLLC: "llc", ResMemBW: "membw",
		ResNetBW: "netbw", ResMemory: "memory", ResPower: "power",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if Resource(99).String() != "resource(99)" {
		t.Error("unknown resource name")
	}
	if OwnerLC.String() != "lc" || OwnerBE.String() != "be" {
		t.Error("owner kind names")
	}
}
