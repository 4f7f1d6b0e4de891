package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
)

// TestRunPolicySelectors pins how Run resolves RunConfig.Policy: nil is
// PolicyRhythm, the canonical selectors resolve to Rhythm, Heracles and
// solo, PolicyNone runs no BE work, and a custom policy value is used as
// given.
func TestRunPolicySelectors(t *testing.T) {
	sys := quickDeploy(t)
	base := RunConfig{
		Pattern:  loadgen.Constant(0.6),
		BETypes:  []bejobs.Type{bejobs.Wordcount},
		Duration: 30 * time.Second,
		Warmup:   6 * time.Second,
		Seed:     7,
	}
	run := func(pol controller.Policy) *engine.RunStats {
		t.Helper()
		cfg := base
		cfg.Policy = pol
		st, err := sys.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	rhythmNil := run(nil)
	if !reflect.DeepEqual(rhythmNil, run(PolicyRhythm)) {
		t.Fatal("nil Policy and PolicyRhythm diverge")
	}
	if rhythmNil.Policy != "Rhythm" {
		t.Fatalf("resolved policy %q, want Rhythm", rhythmNil.Policy)
	}
	if her := run(PolicyHeracles); her.Policy != "Heracles" {
		t.Fatalf("resolved policy %q, want Heracles", her.Policy)
	}
	if solo := run(PolicyNone); solo.Policy != "solo" || solo.MeanBEThroughput() != 0 {
		t.Fatalf("PolicyNone ran BE work: policy=%q thpt=%v", solo.Policy, solo.MeanBEThroughput())
	}

	// A custom Heracles value is used as given: its tighter thresholds
	// reach the engine instead of the registry's published pair.
	custom := controller.NewHeracles()
	custom.Uniform = controller.Thresholds{Loadlimit: 0.7, Slacklimit: 0.2}
	if got := run(custom); got.Policy != "Heracles" || reflect.DeepEqual(got, run(PolicyHeracles)) {
		t.Fatalf("custom Heracles not used as given: policy=%q", got.Policy)
	}
}

// TestPolicyNamedResolution pins the registry path through Run: a
// PolicyNamed selector resolves against the deployed system's thresholds
// at run time, and unknown names fail fast listing the registry.
func TestPolicyNamedResolution(t *testing.T) {
	sys := quickDeploy(t)
	cfg := RunConfig{
		Pattern:  loadgen.Constant(0.6),
		BETypes:  []bejobs.Type{bejobs.Wordcount},
		Duration: 30 * time.Second,
		Warmup:   6 * time.Second,
		Seed:     7,
	}

	cfg.Policy = PolicyNamed("predictive")
	st, err := sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Policy != "Predictive" {
		t.Fatalf("resolved policy %q, want Predictive", st.Policy)
	}

	// PolicyNamed("rhythm") is the system's own calibrated instance — the
	// same bytes as the PolicyRhythm selector.
	cfg.Policy = PolicyNamed("rhythm")
	viaName, err := sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = PolicyRhythm
	viaSel, err := sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaName, viaSel) {
		t.Fatal(`PolicyNamed("rhythm") diverges from PolicyRhythm`)
	}

	cfg.Policy = PolicyNamed("no-such-policy")
	if _, err := sys.Run(cfg); err == nil {
		t.Fatal("unknown policy name accepted")
	} else if !strings.Contains(err.Error(), "predictive") {
		t.Fatalf("error does not list the registry: %v", err)
	}
}

// TestRunWithFaults pins that a fault schedule reaches the engine through
// the unified Run and that an invalid one fails before any work.
func TestRunWithFaults(t *testing.T) {
	sys := quickDeploy(t)
	sched, err := faults.Preset("chaos", 11, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Pattern:  loadgen.Constant(0.6),
		BETypes:  []bejobs.Type{bejobs.Wordcount},
		Duration: 30 * time.Second,
		Warmup:   6 * time.Second,
		Seed:     7,
		Faults:   sched,
	}
	st, err := sys.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCrashes() == 0 && st.DegradedPeriods == 0 {
		t.Fatal("chaos schedule had no visible effect")
	}

	cfg.Faults = &faults.Schedule{Events: []faults.Event{{Kind: "bogus"}}}
	if _, err := sys.Run(cfg); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
