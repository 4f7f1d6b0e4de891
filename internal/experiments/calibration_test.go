package experiments

import (
	"strings"
	"testing"
)

// TestCalibrationScenario pins the calibration experiment's two claims:
// the self-calibration fixed point holds (a run reproduces its own
// exported metrics under DefaultRules), and the drift-fit recovers the
// injected parameter corrections. The experiment is analytic — no engine,
// no RNG — so it is cheap enough to run everywhere.
func TestCalibrationScenario(t *testing.T) {
	tab, err := sharedCtx.Run("calibration")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("calibration produced no rows")
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("fixed point broken for %v", row)
		}
	}
	notes := strings.Join(tab.Notes, "\n")
	for _, want := range []string{"PASS", "0 breach(es)", "converged", "drift"} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes missing %q:\n%s", want, notes)
		}
	}
}
