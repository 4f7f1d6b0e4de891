package controller

import (
	"testing"
	"testing/quick"

	"rhythm/internal/sim"
)

func rhythmForTest(t *testing.T) *Rhythm {
	t.Helper()
	r, err := NewRhythm(map[string]Thresholds{
		// The paper's derived values for E-commerce (§3.5.1).
		"Haproxy": {Loadlimit: 0.90, Slacklimit: 0.032},
		"Tomcat":  {Loadlimit: 0.87, Slacklimit: 0.078},
		"Amoeba":  {Loadlimit: 0.92, Slacklimit: 0.040},
		"MySQL":   {Loadlimit: 0.76, Slacklimit: 0.347},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// decideAt is Decide on a bare (pod, load, slack) input, reason dropped.
func decideAt(p Policy, pod string, load, slack float64) Action {
	act, _ := p.Decide(PolicyInput{Pod: pod, Load: load, Slack: slack})
	return act
}

func TestAlgorithm2Decisions(t *testing.T) {
	r := rhythmForTest(t)
	cases := []struct {
		pod         string
		load, slack float64
		want        Action
	}{
		{"MySQL", 0.5, -0.1, StopBE},            // SLA violated
		{"MySQL", 0.8, 0.5, SuspendBE},          // load above 0.76
		{"MySQL", 0.5, 0.1, CutBE},              // slack < slacklimit/2
		{"MySQL", 0.5, 0.2, DisallowBEGrowth},   // slacklimit/2 < slack < slacklimit
		{"MySQL", 0.5, 0.5, AllowBEGrowth},      // comfortable slack
		{"Tomcat", 0.8, 0.5, AllowBEGrowth},     // same load fine for Tomcat
		{"Tomcat", 0.88, 0.5, SuspendBE},        // above Tomcat's 0.87
		{"Tomcat", 0.5, 0.05, DisallowBEGrowth}, // 0.039 < 0.05 < 0.078
		{"Tomcat", 0.5, 0.03, CutBE},
	}
	for _, tc := range cases {
		if got := decideAt(r, tc.pod, tc.load, tc.slack); got != tc.want {
			t.Errorf("Decide(%s, load=%v, slack=%v) = %v, want %v",
				tc.pod, tc.load, tc.slack, got, tc.want)
		}
	}
}

func TestStopDominatesEverything(t *testing.T) {
	// slack < 0 must stop BE jobs regardless of load (Algorithm 2 line 4).
	r := rhythmForTest(t)
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		load := rng.Float64() * 1.2
		return decideAt(r, "MySQL", load, -rng.Float64()) == StopBE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComponentDistinguishability(t *testing.T) {
	// The same (load, slack) point yields different actions on different
	// Servpods — the defining property Heracles lacks.
	r := rhythmForTest(t)
	load, slack := 0.80, 0.20
	my := decideAt(r, "MySQL", load, slack)
	zk := decideAt(r, "Tomcat", load, slack)
	if my == zk {
		t.Fatalf("Rhythm should distinguish pods: MySQL=%v Tomcat=%v", my, zk)
	}
	h := NewHeracles()
	if decideAt(h, "MySQL", load, slack) != decideAt(h, "Tomcat", load, slack) {
		t.Fatal("Heracles must treat pods uniformly")
	}
}

func TestHeraclesPublishedThresholds(t *testing.T) {
	h := NewHeracles()
	if h.Uniform.Loadlimit != 0.85 || h.Uniform.Slacklimit != 0.10 {
		t.Fatalf("Heracles thresholds = %+v, want 0.85/0.10 (§5.1)", h.Uniform)
	}
	if decideAt(h, "any", 0.86, 0.9) != SuspendBE {
		t.Fatal("Heracles must disable BE above 85% load")
	}
	if decideAt(h, "any", 0.5, 0.08) != DisallowBEGrowth {
		t.Fatal("Heracles must disallow growth below 10% slack")
	}
	if decideAt(h, "any", 0.5, 0.2) != AllowBEGrowth {
		t.Fatal("Heracles should allow growth with ample slack")
	}
}

func TestUnknownPodGetsConservativeThresholds(t *testing.T) {
	r := rhythmForTest(t)
	// Conservative = min loadlimit (0.76), max slacklimit (0.347).
	if got := decideAt(r, "ghost", 0.80, 0.9); got != SuspendBE {
		t.Fatalf("unknown pod at load 0.80 = %v, want SuspendBE", got)
	}
	if got := decideAt(r, "ghost", 0.5, 0.3); got != DisallowBEGrowth {
		t.Fatalf("unknown pod at slack 0.3 = %v, want DisallowBEGrowth", got)
	}
}

func TestNewRhythmValidation(t *testing.T) {
	if _, err := NewRhythm(nil); err == nil {
		t.Fatal("empty thresholds accepted")
	}
	bad := []Thresholds{
		{Loadlimit: 0, Slacklimit: 0.1},
		{Loadlimit: 2, Slacklimit: 0.1},
		{Loadlimit: 0.8, Slacklimit: 0},
		{Loadlimit: 0.8, Slacklimit: 1.5},
	}
	for i, th := range bad {
		if _, err := NewRhythm(map[string]Thresholds{"x": th}); err == nil {
			t.Errorf("case %d: invalid thresholds accepted: %+v", i, th)
		}
	}
}

func TestRhythmIsolatedFromCallerMap(t *testing.T) {
	m := map[string]Thresholds{"a": {Loadlimit: 0.9, Slacklimit: 0.1}}
	r, err := NewRhythm(m)
	if err != nil {
		t.Fatal(err)
	}
	m["a"] = Thresholds{Loadlimit: 0.1, Slacklimit: 0.9}
	if got, _ := r.Thresholds("a"); got.Loadlimit != 0.9 {
		t.Fatal("policy shares caller's map")
	}
}

func TestPodsSorted(t *testing.T) {
	r := rhythmForTest(t)
	pods := r.Pods()
	if len(pods) != 4 {
		t.Fatalf("pods = %v", pods)
	}
	for i := 1; i < len(pods); i++ {
		if pods[i-1] >= pods[i] {
			t.Fatalf("pods not sorted: %v", pods)
		}
	}
}

func TestDisabledPolicyNeverAdmits(t *testing.T) {
	var d Disabled
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		return decideAt(d, "x", rng.Float64(), rng.Float64()) == SuspendBE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestActionAndNameStrings(t *testing.T) {
	for a, want := range map[Action]string{
		StopBE: "StopBE", SuspendBE: "SuspendBE", CutBE: "CutBE",
		DisallowBEGrowth: "DisallowBEGrowth", AllowBEGrowth: "AllowBEGrowth",
	} {
		if a.String() != want {
			t.Errorf("%d = %q", a, a.String())
		}
	}
	if Action(9).String() != "action(9)" {
		t.Error("unknown action string")
	}
	if rhythmForTest(t).Name() != "Rhythm" || NewHeracles().Name() != "Heracles" || (Disabled{}).Name() != "solo" {
		t.Error("policy names")
	}
}

func TestBoundaryConditions(t *testing.T) {
	r := rhythmForTest(t)
	// Exactly at loadlimit: not above, so load check passes through.
	if got := decideAt(r, "MySQL", 0.76, 0.9); got != AllowBEGrowth {
		t.Fatalf("at loadlimit exactly = %v", got)
	}
	// Exactly zero slack is not a violation but falls in CutBE range.
	if got := decideAt(r, "MySQL", 0.5, 0); got != CutBE {
		t.Fatalf("at zero slack = %v", got)
	}
}

// TestExplainMatchesDecide sweeps a dense (load, slack) grid — including
// the exact threshold boundaries — and asserts Decide returns the same
// action with Explain on and off for both policies, with an empty reason
// when off and a non-empty one when on: the decision trace must never
// report a branch the controller did not take, and an untraced run must
// build no strings.
func TestExplainMatchesDecide(t *testing.T) {
	loads := []float64{0, 0.3, 0.5, 0.76, 0.761, 0.85, 0.851, 0.9, 1.2}
	slacks := []float64{-0.5, -0.001, 0, 0.01, 0.05, 0.0785, 0.157, 0.3, 0.347, 0.5, 1}
	pods := []string{"Haproxy", "Tomcat", "Amoeba", "MySQL", "not-a-pod"}
	for _, pol := range []Policy{rhythmForTest(t), NewHeracles()} {
		for _, pod := range pods {
			for _, load := range loads {
				for _, slack := range slacks {
					in := PolicyInput{Pod: pod, Load: load, Slack: slack}
					act, quiet := pol.Decide(in)
					in.Explain = true
					got, reason := pol.Decide(in)
					if got != act || quiet != "" || reason == "" {
						t.Fatalf("%s(%s, %v, %v): Explain off (%v, %q), on (%v, %q)",
							pol.Name(), pod, load, slack, act, quiet, got, reason)
					}
				}
			}
		}
	}
}
