package experiments

import (
	"strings"
	"testing"
)

// sharedCtx caches one Quick context across the test binary so that the
// expensive per-service deployments run once.
var sharedCtx = NewContext(Options{Quick: true, Seed: 2020})

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := sharedCtx.Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table id = %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row width %d != %d columns: %v", id, len(row), len(tab.Columns), row)
		}
	}
	return tab
}

// requireNoMismatch fails when any headline note flags a shape mismatch
// against the paper.
func requireNoMismatch(t *testing.T, tab *Table) {
	t.Helper()
	for _, n := range tab.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Errorf("%s: %s", tab.ID, n)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"tab1", "tab2",
		"ablation-contribution", "ablation-period", "ablation-pairing",
		"ablation-isolation",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Get("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// requireOnDemand checks that id resolves by Get, is flagged OnDemand,
// and is listed by ScenarioIDs() but not by IDs() — so `run all` and the
// golden stdout never see it.
func requireOnDemand(t *testing.T, id string) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !e.OnDemand {
		t.Fatalf("%s is not marked OnDemand", id)
	}
	for _, have := range IDs() {
		if have == id {
			t.Fatalf("%s leaked into IDs()", id)
		}
	}
	found := false
	for _, have := range ScenarioIDs() {
		if have == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s missing from ScenarioIDs(): %v", id, ScenarioIDs())
	}
}

func TestTournamentExcludedFromRunAll(t *testing.T)  { requireOnDemand(t, "tournament") }
func TestResilienceExcludedFromRunAll(t *testing.T)  { requireOnDemand(t, "resilience") }
func TestCalibrationExcludedFromRunAll(t *testing.T) { requireOnDemand(t, "calibration") }
func TestScenarioExcludedFromRunAll(t *testing.T)    { requireOnDemand(t, "scenario") }

func TestFig2(t *testing.T)  { requireNoMismatch(t, runExp(t, "fig2")) }
func TestFig6(t *testing.T)  { requireNoMismatch(t, runExp(t, "fig6")) }
func TestFig7(t *testing.T)  { requireNoMismatch(t, runExp(t, "fig7")) }
func TestFig8(t *testing.T)  { requireNoMismatch(t, runExp(t, "fig8")) }
func TestTab1(t *testing.T)  { runExp(t, "tab1") }
func TestFig9(t *testing.T)  { requireNoMismatch(t, runExp(t, "fig9")) }
func TestFig12(t *testing.T) { requireNoMismatch(t, runExp(t, "fig12")) }
func TestFig15(t *testing.T) { requireNoMismatch(t, runExp(t, "fig15")) }
func TestFig16(t *testing.T) { runExp(t, "fig16") }
func TestFig17(t *testing.T) { requireNoMismatch(t, runExp(t, "fig17")) }
func TestFig18(t *testing.T) { runExp(t, "fig18") }
func TestTab2(t *testing.T)  { requireNoMismatch(t, runExp(t, "tab2")) }

func TestAblations(t *testing.T) {
	requireNoMismatch(t, runExp(t, "ablation-contribution"))
	runExp(t, "ablation-period")
	requireNoMismatch(t, runExp(t, "ablation-pairing"))
	requireNoMismatch(t, runExp(t, "ablation-isolation"))
}

func TestTableString(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 42)
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "hello 42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestContextCachesSystems(t *testing.T) {
	a, err := sharedCtx.System("E-commerce")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedCtx.System("E-commerce")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("system not cached")
	}
	if _, err := sharedCtx.System("Ghost"); err == nil {
		t.Fatal("unknown service accepted")
	}
}
