package experiments

import (
	"strings"
	"testing"
)

// TestScenarioNeedsSpec: running the experiment without a spec is a
// usage error, not a crash.
func TestScenarioNeedsSpec(t *testing.T) {
	ctx := NewContext(Options{Quick: true, Seed: 1, Jobs: 1})
	if _, err := ctx.Run("scenario"); err == nil ||
		!strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("err = %v, want a -scenario usage hint", err)
	}
}
