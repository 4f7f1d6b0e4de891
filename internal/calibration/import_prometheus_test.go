package calibration

import (
	"strings"
	"testing"
)

func TestImportPrometheusBasic(t *testing.T) {
	src := `# TYPE rhythm_engine_ticks_total counter
rhythm_engine_ticks_total 42
# HELP free-form comments are ignored
# TYPE rhythm_sched_queue_depth gauge
rhythm_sched_queue_depth 7.5
# TYPE rhythm_window_p99_seconds histogram
rhythm_window_p99_seconds_bucket{le="0.1"} 3
rhythm_window_p99_seconds_bucket{le="+Inf"} 5
rhythm_window_p99_seconds_sum 1.25
rhythm_window_p99_seconds_count 5
`
	set, err := ImportPrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := set.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6 (keys %v)", got, set.Keys())
	}
	if v, ok := set.Value("rhythm_engine_ticks_total"); !ok || v != 42 {
		t.Fatalf("ticks = %v, %v", v, ok)
	}
	if ty := set.Type("rhythm_window_p99_seconds"); ty != "histogram" {
		t.Fatalf("type = %q", ty)
	}
	h, err := set.Histogram("rhythm_window_p99_seconds")
	if err != nil {
		t.Fatalf("histogram: %v", err)
	}
	if h.Count != 5 || h.Sum != 1.25 || len(h.Bounds) != 1 || h.Cumulative[1] != 5 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestImportPrometheusTimestampsAndForeignTypes(t *testing.T) {
	src := `# TYPE external_requests_total counter
external_requests_total{job="web"} 10 1716822000000
# TYPE external_rt summary
external_rt{quantile="0.99"} 0.25
`
	set, err := ImportPrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if v, _ := set.Value(`external_requests_total{job="web"}`); v != 10 {
		t.Fatalf("timestamped sample = %v", v)
	}
	if ty := set.Type("external_rt"); ty != "summary" {
		t.Fatalf("foreign type = %q", ty)
	}
}

// TestImportPrometheusDefects pins the strict-decode contract: every
// malformed line becomes a FieldError naming its 0-based location, and
// all defects are reported together.
func TestImportPrometheusDefects(t *testing.T) {
	src := `# TYPE ok_total counter
ok_total 1
# TYPE bad_type wibble
# TYPE ok_total gauge
bare-no-value
good_value{l="x"} not-a-number
ok_total 2
` + strings.Repeat("x", 1<<20) + "\n"
	_, err := ImportPrometheus(strings.NewReader(src))
	if err == nil {
		t.Fatal("want defects, got nil")
	}
	msg := err.Error()
	for _, want := range []string{
		`lines[2]: unknown metric type "wibble"`,
		"lines[3]: family ok_total re-declared as gauge",
		"lines[4]: malformed sample line",
		`lines[5]: bad value "not-a-number"`,
		"lines[6]: duplicate series ok_total",
		"lines[7]: bufio.Scanner: token too long",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error missing %q:\n%s", want, msg)
		}
	}
}

func TestImportPrometheusLabelSpaces(t *testing.T) {
	src := `# TYPE spaced gauge
spaced{k="a value with spaces"} 3.5
`
	set, err := ImportPrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if v, ok := set.Value(`spaced{k="a value with spaces"}`); !ok || v != 3.5 {
		t.Fatalf("spaced value = %v, %v (keys %v)", v, ok, set.Keys())
	}
}

// TestImportPrometheusCanonicalizesLabelOrder pins that a foreign export
// with differently ordered labels still matches the sink's spelling.
func TestImportPrometheusCanonicalizesLabelOrder(t *testing.T) {
	src := "m{b=\"2\",a=\"1\"} 4\n"
	set, err := ImportPrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if v, ok := set.Value(`m{a="1",b="2"}`); !ok || v != 4 {
		t.Fatalf("canonical key lookup = %v, %v (keys %v)", v, ok, set.Keys())
	}
}

func TestHistogramSeriesValidation(t *testing.T) {
	src := `# TYPE h histogram
h_bucket{le="0.1"} 5
h_bucket{le="0.2"} 3
h_bucket{le="+Inf"} 6
h_count 6
h_sum 1
`
	set, err := ImportPrometheus(strings.NewReader(src))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if _, err := set.Histogram("h"); err == nil || !strings.Contains(err.Error(), "non-cumulative") {
		t.Fatalf("want non-cumulative error, got %v", err)
	}
	if _, err := set.Histogram("nope"); err == nil {
		t.Fatal("want error for unknown family")
	}
}
