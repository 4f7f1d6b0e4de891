package engine

import (
	"testing"

	"rhythm/internal/controller"
)

// reporterPolicy exposes the SlacklimitReporter capability with a
// non-default per-pod value.
type reporterPolicy struct{ limits map[string]float64 }

func (reporterPolicy) Decide(controller.PolicyInput) (controller.Action, string) {
	return controller.AllowBEGrowth, ""
}
func (reporterPolicy) Name() string                       { return "reporter" }
func (r reporterPolicy) SlacklimitFor(pod string) float64 { return r.limits[pod] }

// bareMinimum implements only the base Policy interface.
type bareMinimum struct{}

func (bareMinimum) Decide(controller.PolicyInput) (controller.Action, string) {
	return controller.AllowBEGrowth, ""
}
func (bareMinimum) Name() string { return "bare" }

// TestMaxSlacklimitCapability: CutBE step sizing reads the slacklimit
// through the controller.SlacklimitReporter capability — any policy
// exposing it is honored, everything else (including a zero or unknown
// pod) falls back to the conservative Heracles 0.10.
func TestMaxSlacklimitCapability(t *testing.T) {
	rep := reporterPolicy{limits: map[string]float64{"frontend": 0.22}}
	cases := []struct {
		name string
		pol  controller.Policy
		pod  string
		want float64
	}{
		{"reporter known pod", rep, "frontend", 0.22},
		{"reporter unknown pod zero-falls-back", rep, "cache", 0.10},
		{"non-reporter", bareMinimum{}, "frontend", 0.10},
		{"nil policy", nil, "frontend", 0.10},
	}
	for _, tc := range cases {
		if got := maxSlacklimit(tc.pol, tc.pod); got != tc.want {
			t.Errorf("%s: maxSlacklimit = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMaxSlacklimitRhythm: the calibrated Rhythm policy reports its
// per-Servpod slacklimit straight through.
func TestMaxSlacklimitRhythm(t *testing.T) {
	pol, err := controller.NewRhythm(map[string]controller.Thresholds{
		"frontend": {Loadlimit: 0.8, Slacklimit: 0.17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSlacklimit(pol, "frontend"); got != 0.17 {
		t.Fatalf("rhythm slacklimit = %v, want 0.17", got)
	}
}
