package calibration

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rhythm/internal/obs"
)

// TestRoundTripProperty pins the sink and the parser against the
// instruments themselves: for randomly generated instrument sets — label
// values that need escaping, histograms with unusual bucket bounds,
// negative gauges, shared families — the set parsed from WriteMetrics'
// text holds exactly one series per counter and gauge with its Value,
// and per histogram one cumulative count per bound plus +Inf (counted
// here from the observations), its Sum and its Count, bit for bit, each
// family under its instrument type.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20200427))
	labelValues := []string{
		"plain", "with space", `back\slash`, `qu"ote`, "new\nline",
		`both\"and` + "\n", "", "unicode-μ",
	}
	type histCase struct {
		name           string
		labels         []string
		bounds, values []float64
		h              *obs.Histogram
	}
	for trial := 0; trial < 50; trial++ {
		bus := obs.NewBus()
		want := make(map[string]float64)
		types := make(map[string]string)
		var scalars []func() // record each counter and gauge Value in want
		nCounter := 1 + rng.Intn(6)
		for i := 0; i < nCounter; i++ {
			name, labels := fmt.Sprintf("rt_counter_%d_total", rng.Intn(4)), randomLabels(rng, labelValues)
			c := bus.Counter(name, labels...)
			c.Add(uint64(rng.Intn(1000)))
			types[name] = "counter"
			scalars = append(scalars, func() { want[canonicalKey(name, labels)] = float64(c.Value()) })
		}
		nGauge := 1 + rng.Intn(4)
		for i := 0; i < nGauge; i++ {
			name, labels := fmt.Sprintf("rt_gauge_%d", rng.Intn(3)), randomLabels(rng, labelValues)
			g := bus.Gauge(name, labels...)
			g.Set((rng.Float64() - 0.5) * 1e6)
			types[name] = "gauge"
			scalars = append(scalars, func() { want[canonicalKey(name, labels)] = g.Value() })
		}
		hists := make(map[string]*histCase)
		nHist := 1 + rng.Intn(3)
		for i := 0; i < nHist; i++ {
			bounds := randomBounds(rng)
			name, labels := fmt.Sprintf("rt_hist_%d", rng.Intn(3)), randomLabels(rng, labelValues)
			key := obs.SeriesKey(name, labels)
			hc := hists[key]
			if hc == nil { // the series' first registration fixes its bounds
				hc = &histCase{name: name, labels: labels, bounds: bounds,
					h: bus.Histogram(name, bounds, labels...)}
				hists[key] = hc
			}
			for n := rng.Intn(40); n >= 0; n-- {
				v := (rng.Float64() - 0.3) * 10
				hc.h.Observe(v)
				hc.values = append(hc.values, v)
			}
			types[name] = "histogram"
		}
		for _, record := range scalars {
			record()
		}
		for _, hc := range hists {
			series := func(suffix string, extra ...string) string {
				return canonicalKey(hc.name+suffix, append(append([]string{}, hc.labels...), extra...))
			}
			for _, bound := range append(append([]float64{}, hc.bounds...), math.Inf(1)) {
				n := 0
				for _, v := range hc.values {
					if v <= bound {
						n++
					}
				}
				le := "+Inf"
				if !math.IsInf(bound, 1) {
					le = obs.FormatMetricValue(bound)
				}
				want[series("_bucket", "le", le)] = float64(n)
			}
			want[series("_sum")] = hc.h.Sum()
			want[series("_count")] = float64(hc.h.Count())
		}

		var buf bytes.Buffer
		if err := bus.WriteMetrics(&buf); err != nil {
			t.Fatalf("trial %d: WriteMetrics: %v", trial, err)
		}
		set, err := ImportPrometheus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: ImportPrometheus:\n%v\nexport:\n%s", trial, err, buf.String())
		}
		if set.Len() != len(want) {
			t.Fatalf("trial %d: %d series parsed, want %d\nexport:\n%s", trial, set.Len(), len(want), buf.String())
		}
		for key, w := range want {
			if v, ok := set.Value(key); !ok || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("trial %d: %s = %v (present %v), want %v\nexport:\n%s", trial, key, v, ok, w, buf.String())
			}
		}
		if !reflect.DeepEqual(set.types, types) {
			t.Fatalf("trial %d: family types %v, want %v", trial, set.types, types)
		}
	}
}

// randomLabels draws 0-2 label pairs, value set including escapes.
func randomLabels(rng *rand.Rand, values []string) []string {
	n := rng.Intn(3)
	out := make([]string, 0, n*2)
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("l%d", i), values[rng.Intn(len(values))])
	}
	return out
}

// randomBounds draws a small ascending bound set, sometimes negative,
// sometimes with many decimals (exercising the shared float rendering).
func randomBounds(rng *rand.Rand) []float64 {
	n := 1 + rng.Intn(6)
	out := make([]float64, 0, n)
	v := (rng.Float64() - 0.5) * 2
	for i := 0; i < n; i++ {
		v += rng.Float64() * 1.7
		out = append(out, v)
	}
	return out
}

// TestSeriesKeyEscapingRoundTrip pins the escaping grammar directly:
// parse(render(labels)) == labels for hostile label values.
func TestSeriesKeyEscapingRoundTrip(t *testing.T) {
	cases := [][]string{
		{"a", `x\y`},
		{"a", `x"y`},
		{"a", "x\ny"},
		{"a", `tricky\"combo` + "\n" + `\\`},
		{"a", "", "b", "second"},
	}
	for _, labels := range cases {
		key := obs.SeriesKey("fam", labels)
		name, parsed, err := obs.ParseSeriesKey(key)
		if err != nil {
			t.Fatalf("ParseSeriesKey(%q): %v", key, err)
		}
		if name != "fam" || !reflect.DeepEqual(parsed, labels) {
			t.Fatalf("round trip %v -> %q -> %v", labels, key, parsed)
		}
	}
}

// TestWriteMetricsDataLineOrder pins the text export's data-line order:
// families by name, series within a family by key, and each histogram's
// buckets in bound order ending at +Inf, then _sum and _count.
func TestWriteMetricsDataLineOrder(t *testing.T) {
	bus := obs.NewBus()
	bus.Counter("z_total", "k", "1").Inc()
	bus.Counter("a_total", "k", "2").Inc()
	bus.Counter("a_total", "k", "1").Add(3)
	bus.Gauge("m_gauge").Set(-1.5)
	bus.Histogram("h", []float64{2, 10}, "k", "1").Observe(3)
	var buf bytes.Buffer
	if err := bus.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			keys = append(keys, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	want := []string{`a_total{k="1"}`, `a_total{k="2"}`,
		`h_bucket{k="1",le="2"}`, `h_bucket{k="1",le="10"}`, `h_bucket{k="1",le="+Inf"}`,
		`h_sum{k="1"}`, `h_count{k="1"}`, "m_gauge", `z_total{k="1"}`}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("data line order %v, want %v", keys, want)
	}
}
