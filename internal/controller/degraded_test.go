package controller

import (
	"math"
	"strings"
	"testing"

	"rhythm/internal/sim"
)

// TestNaNInputsNeverAllowGrowth pins the graceful-degradation contract:
// a NaN slack or load must never reach an Algorithm 2 comparison (every
// NaN comparison is false, which would fall through to AllowBEGrowth) and
// must never panic.
func TestNaNInputsNeverAllowGrowth(t *testing.T) {
	nan := math.NaN()
	pols := []Policy{
		mustRhythm(t),
		NewHeracles(),
	}
	cases := []struct{ load, slack float64 }{
		{nan, 0.5},
		{0.5, nan},
		{nan, nan},
		{math.Inf(1), nan},
		{nan, math.Inf(-1)},
	}
	for _, pol := range pols {
		for _, tc := range cases {
			act, reason := pol.Decide(PolicyInput{Pod: "MySQL", Load: tc.load, Slack: tc.slack, Explain: true})
			if act == AllowBEGrowth {
				t.Fatalf("%s: Decide(load=%v, slack=%v) = AllowBEGrowth on NaN input", pol.Name(), tc.load, tc.slack)
			}
			if act != DisallowBEGrowth {
				t.Fatalf("%s: Decide(load=%v, slack=%v) = %v, want conservative DisallowBEGrowth", pol.Name(), tc.load, tc.slack, act)
			}
			if !strings.Contains(reason, "degraded") {
				t.Fatalf("%s: reason %q does not report degraded mode", pol.Name(), reason)
			}
		}
	}
}

// TestArbitraryDropoutSequences fuzzes decide with random interleavings
// of clean and poisoned (NaN/Inf/stale-extreme) measurements: no input
// sequence may panic, and every poisoned input must map to a
// conservative action.
func TestArbitraryDropoutSequences(t *testing.T) {
	rng := sim.NewRNG(2020)
	pol := mustRhythm(t)
	her := NewHeracles()
	for i := 0; i < 5000; i++ {
		load := rng.Float64() * 1.2
		slack := rng.Float64()*2 - 1
		switch rng.Intn(5) {
		case 0:
			slack = math.NaN()
		case 1:
			load = math.NaN()
		case 2:
			slack = math.Inf(1 - 2*rng.Intn(2))
		}
		for _, p := range []Policy{pol, her} {
			act := decideAt(p, "MySQL", load, slack)
			if act < StopBE || act > AllowBEGrowth {
				t.Fatalf("%s: out-of-range action %d", p.Name(), act)
			}
			if (math.IsNaN(load) || math.IsNaN(slack)) && act == AllowBEGrowth {
				t.Fatalf("%s: AllowBEGrowth from NaN input (load=%v slack=%v)", p.Name(), load, slack)
			}
		}
	}
}

// TestDegradedEscalation pins the DisallowBEGrowth -> CutBE escalation
// and that it never grows BE while blind.
func TestDegradedEscalation(t *testing.T) {
	for n := 1; n <= 10; n++ {
		act := Degraded(n)
		if act == AllowBEGrowth {
			t.Fatalf("Degraded(%d) allows growth while blind", n)
		}
		want := DisallowBEGrowth
		if n > DegradedAfter {
			want = CutBE
		}
		if act != want {
			t.Fatalf("Degraded(%d) = %v, want %v", n, act, want)
		}
		reason := DegradedReason(n, "p99 NaN")
		if !strings.Contains(reason, "degraded") || !strings.Contains(reason, act.String()) {
			t.Fatalf("DegradedReason(%d) = %q missing mode or action", n, reason)
		}
	}
}

func mustRhythm(t *testing.T) *Rhythm {
	t.Helper()
	pol, err := NewRhythm(map[string]Thresholds{
		"MySQL": {Loadlimit: 0.6, Slacklimit: 0.3},
		"Web":   {Loadlimit: 0.9, Slacklimit: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}
