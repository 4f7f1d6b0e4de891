package rhythm

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExamplesUseOnlyTheFacade enforces the facade-completeness contract:
// every example program must compile against the rhythm package alone.
// An example needing a rhythm/internal import means the facade is missing
// a re-export — fix rhythm.go, not the example.
func TestExamplesUseOnlyTheFacade(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, "rhythm/internal") {
				t.Errorf("%s imports %s — examples must use the rhythm facade only", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultFacade exercises the fault-injection surface exported through
// the facade: presets, file loading, and the schedule reaching a run.
func TestFaultFacade(t *testing.T) {
	names := FaultPresets()
	if len(names) != 3 {
		t.Fatalf("presets = %v, want 3", names)
	}
	for _, name := range names {
		sched, err := FaultPreset(name, 2020, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Events) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
	}
	if _, err := FaultPreset("nope", 1, 0); err == nil {
		t.Fatal("unknown preset accepted")
	}

	path := filepath.Join(t.TempDir(), "storm.json")
	body := `{"name":"x","events":[{"kind":"` + string(FaultBECrash) + `","at_s":5,"restart_delay_s":2}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err := LoadFaultSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) != 1 || sched.Events[0].Kind != FaultBECrash {
		t.Fatalf("loaded schedule: %+v", sched)
	}
}

// TestScenarioRegistryThroughFacade pins that resilience is discoverable
// as a scenario and excluded from the `run all` list.
func TestScenarioRegistryThroughFacade(t *testing.T) {
	scenarios := ScenarioExperiments()
	found := false
	for _, id := range scenarios {
		if id == "resilience" {
			found = true
		}
		for _, all := range Experiments() {
			if id == all {
				t.Fatalf("scenario %q leaked into Experiments()/run all", id)
			}
		}
	}
	if !found {
		t.Fatalf("resilience not in scenarios: %v", scenarios)
	}
}

// TestObsFacade pins the bus lifecycle helpers: install, observe, drain.
func TestObsFacade(t *testing.T) {
	var sb strings.Builder
	bus := NewBus(NewJSONLSink(&sb))
	InstallBus(bus)
	if ActiveBus() != bus {
		UninstallBus()
		t.Fatal("ActiveBus does not return the installed bus")
	}
	UninstallBus()
	if ActiveBus() != nil {
		t.Fatal("bus still active after UninstallBus")
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicySelectorsThroughFacade: the selectors and action vocabulary
// are usable without importing internal packages.
func TestPolicySelectorsThroughFacade(t *testing.T) {
	for _, p := range []Policy{PolicyRhythm, PolicyHeracles, PolicyNone} {
		if p == nil || p.Name() == "" {
			t.Fatal("selector missing a name")
		}
	}
	h := NewHeracles()
	if h.Uniform.Loadlimit <= 0 {
		t.Fatalf("Heracles defaults: %+v", h.Uniform)
	}
	if act, _ := h.Decide(PolicyInput{Pod: "pod", Load: 0.99, Slack: math.NaN()}); act == AllowBEGrowth {
		t.Fatal("NaN slack must never allow BE growth")
	}
	if !(StopBE < SuspendBE && SuspendBE < CutBE && CutBE < DisallowBEGrowth && DisallowBEGrowth < AllowBEGrowth) {
		t.Fatal("action severity order broken")
	}
}

// TestPolicyRegistryThroughFacade: the zoo, the named selector and
// custom registration are all reachable from the facade — no
// rhythm/internal import needed to ship a policy.
func TestPolicyRegistryThroughFacade(t *testing.T) {
	names := Policies()
	if len(names) < 6 {
		t.Fatalf("Policies() = %v, want the full zoo", names)
	}
	for _, want := range []string{"rhythm", "heracles", "none", "predictive", "scoring", "rack-central"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in %q missing from Policies(): %v", want, names)
		}
	}
	if p := PolicyNamed("predictive"); p == nil || p.Name() == "" {
		t.Fatal("PolicyNamed returned an unusable selector")
	}

	// A custom policy can be registered and resolved by name.
	RegisterPolicy("facade-test", func(opts PolicyFactoryOpts) (Policy, error) {
		return NewHeracles(), nil
	})
	found := false
	for _, n := range Policies() {
		if n == "facade-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered policy missing from Policies(): %v", Policies())
	}
}
