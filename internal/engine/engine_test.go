package engine

import (
	"math"
	"testing"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/loadgen"
	"rhythm/internal/workload"
)

// deriveSLA mimics the paper's SLA definition: the worst window p99 of a
// solo run at max load.
func deriveSLA(t *testing.T, svc *workload.Service) float64 {
	t.Helper()
	e, err := New(Config{
		Service: svc,
		Pattern: loadgen.Constant(1.0),
		Seed:    99,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st.WorstP99
}

func run(t *testing.T, cfg Config, d time.Duration) *RunStats {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSoloRunHasNoBE(t *testing.T) {
	svc := workload.ECommerce()
	st := run(t, Config{Service: svc, Pattern: loadgen.Constant(0.5), Seed: 1}, 20*time.Second)
	for pod, ps := range st.PerPod {
		if ps.BEThroughput != 0 || ps.Completions != 0 {
			t.Fatalf("%s: solo run produced BE activity: %+v", pod, ps)
		}
	}
	if st.WorstP99 <= 0 {
		t.Fatal("solo run should still measure latency")
	}
	if st.Policy != "solo" {
		t.Fatalf("policy label = %q", st.Policy)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	svc := workload.ECommerce()
	lo := run(t, Config{Service: svc, Pattern: loadgen.Constant(0.2), Seed: 2}, 20*time.Second)
	hi := run(t, Config{Service: svc, Pattern: loadgen.Constant(0.9), Seed: 2}, 20*time.Second)
	if hi.WorstP99 <= lo.WorstP99 {
		t.Fatalf("p99 should grow with load: %v vs %v", hi.WorstP99, lo.WorstP99)
	}
}

func TestHeraclesAdmitsBEAtLowLoad(t *testing.T) {
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service: svc,
		Pattern: loadgen.Constant(0.45),
		SLA:     sla,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress},
		Seed:    3,
	}, 60*time.Second)
	if st.MeanBEThroughput() <= 0 {
		t.Fatal("Heracles should admit BE jobs at 45% load")
	}
	if st.MeanEMU() <= 0.45 {
		t.Fatalf("EMU %v should exceed the LC load alone", st.MeanEMU())
	}
}

func TestHeraclesDisablesBEAboveLoadlimit(t *testing.T) {
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service: svc,
		Pattern: loadgen.Constant(0.86),
		SLA:     sla,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress},
		Seed:    4,
	}, 60*time.Second)
	if st.MeanBEThroughput() > 1e-9 {
		t.Fatalf("Heracles must not co-locate above 85%% load, got %v", st.MeanBEThroughput())
	}
}

func rhythmPolicy(t *testing.T) *controller.Rhythm {
	t.Helper()
	r, err := controller.NewRhythm(map[string]controller.Thresholds{
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

func TestRhythmKeepsBERunningAboveHeraclesLimit(t *testing.T) {
	// At 87% load Heracles suspends everywhere but Rhythm's tolerant
	// pods (loadlimit up to 0.92) keep their BE jobs.
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service: svc,
		Pattern: loadgen.Constant(0.87),
		SLA:     sla,
		Policy:  rhythmPolicy(t),
		BETypes: []bejobs.Type{bejobs.Wordcount},
		Seed:    5,
	}, 60*time.Second)
	if st.PerPod["Amoeba"].BEThroughput <= 0 {
		t.Fatal("Amoeba (loadlimit 0.92) should host BE at 87% load")
	}
	if st.PerPod["MySQL"].BEThroughput > 1e-9 {
		t.Fatal("MySQL (loadlimit 0.76) should be BE-free at 87% load")
	}
}

func TestRhythmBeatsHeraclesOnEMU(t *testing.T) {
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	base := Config{
		Service: svc,
		Pattern: loadgen.Constant(0.65),
		SLA:     sla,
		BETypes: []bejobs.Type{bejobs.Wordcount},
		Seed:    6,
	}
	h := base
	h.Policy = controller.NewHeracles()
	hst := run(t, h, 90*time.Second)
	r := base
	r.Policy = rhythmPolicy(t)
	rst := run(t, r, 90*time.Second)
	if rst.MeanEMU() <= hst.MeanEMU() {
		t.Fatalf("Rhythm EMU %v should beat Heracles %v at 65%% load",
			rst.MeanEMU(), hst.MeanEMU())
	}
}

func TestSLAProtection(t *testing.T) {
	// With an SLA barely above the solo p99, heavy interference must
	// trigger StopBE/CutBE rather than run unchecked. Count kills.
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service: svc,
		Pattern: loadgen.Constant(0.7),
		SLA:     sla * 0.7, // deliberately tight: violations expected
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.StreamDRAM},
		Seed:    7,
	}, 60*time.Second)
	if st.TotalKills() == 0 && st.Violations == 0 {
		t.Fatal("tight SLA under stream-dram should trigger the controller")
	}
}

func TestNoOversubscriptionAfterRun(t *testing.T) {
	svc := workload.Solr()
	sla := deriveSLA(t, svc)
	e, err := New(Config{
		Service: svc,
		Pattern: loadgen.Constant(0.3),
		SLA:     sla,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.StreamDRAM, bejobs.CPUStress},
		Seed:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, p := range e.pods {
		if p.machine.FreeCores() < 0 || p.machine.FreeLLCWays() < 0 ||
			p.machine.FreeMemoryGB() < -1e-9 || p.machine.FreeNetGbps() < -1e-9 {
			t.Fatalf("machine %s oversubscribed", p.machine.Name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	svc := workload.Redis()
	cfg := Config{
		Service: svc,
		Pattern: loadgen.Constant(0.5),
		SLA:     0.01,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.LSTM},
		Seed:    11,
	}
	a := run(t, cfg, 30*time.Second)
	b := run(t, cfg, 30*time.Second)
	if a.WorstP99 != b.WorstP99 || a.MeanEMU() != b.MeanEMU() ||
		a.TotalKills() != b.TotalKills() {
		t.Fatal("same seed should reproduce the run exactly")
	}
}

func TestTimelineSeries(t *testing.T) {
	svc := workload.ECommerce()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service:  svc,
		Pattern:  loadgen.Constant(0.5),
		SLA:      sla,
		Policy:   rhythmPolicy(t),
		BETypes:  []bejobs.Type{bejobs.Wordcount},
		Seed:     12,
		Timeline: true,
	}, 30*time.Second)
	for _, key := range []string{"MySQL/load", "MySQL/slack", "Tomcat/be_cores", "Tomcat/be_throughput"} {
		s, ok := st.Series[key]
		if !ok || s.Len() == 0 {
			t.Fatalf("missing timeline series %q", key)
		}
	}
	if len(st.Actions) == 0 {
		t.Fatal("timeline should record controller actions")
	}
}

func TestCollectSamples(t *testing.T) {
	svc := workload.Redis()
	st := run(t, Config{
		Service:        svc,
		Pattern:        loadgen.Constant(0.5),
		Seed:           13,
		CollectSamples: true,
	}, 10*time.Second)
	if len(st.E2ESamples) == 0 {
		t.Fatal("no e2e samples collected")
	}
	for _, pod := range []string{"Master", "Slave"} {
		if len(st.PerPod[pod].SojournSamples) != len(st.E2ESamples) {
			t.Fatalf("%s: %d sojourn samples vs %d e2e samples",
				pod, len(st.PerPod[pod].SojournSamples), len(st.E2ESamples))
		}
	}
}

func TestBECompletionsAccrue(t *testing.T) {
	svc := workload.Solr()
	sla := deriveSLA(t, svc)
	st := run(t, Config{
		Service: svc,
		Pattern: loadgen.Constant(0.25),
		SLA:     sla,
		Policy:  controller.NewHeracles(),
		BETypes: []bejobs.Type{bejobs.CPUStress}, // shortest solo time (0.5 h)
		Seed:    14,
	}, 2*time.Hour)
	total := 0
	for _, ps := range st.PerPod {
		total += ps.Completions
	}
	if total == 0 {
		t.Fatal("no BE completions in 2 hours at low load")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := New(Config{Service: workload.Redis()}); err == nil {
		t.Fatal("nil pattern accepted")
	}
	e, err := New(Config{Service: workload.Redis(), Pattern: loadgen.Constant(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestStatsAggregation(t *testing.T) {
	st := &RunStats{PerPod: map[string]*PodStats{
		"a": {EMU: 1.0, BEThroughput: 0.4, CPUUtil: 0.5, MemBWUtil: 0.2, Kills: 2},
		"b": {EMU: 0.5, BEThroughput: 0.2, CPUUtil: 0.3, MemBWUtil: 0.4, Kills: 1},
	}}
	if math.Abs(st.MeanEMU()-0.75) > 1e-12 ||
		math.Abs(st.MeanBEThroughput()-0.3) > 1e-12 ||
		math.Abs(st.MeanCPUUtil()-0.4) > 1e-12 ||
		math.Abs(st.MeanMemBWUtil()-0.3) > 1e-12 ||
		st.TotalKills() != 3 {
		t.Fatal("aggregation broken")
	}
	empty := &RunStats{PerPod: map[string]*PodStats{}}
	if empty.MeanEMU() != 0 || empty.MeanBEThroughput() != 0 ||
		empty.MeanCPUUtil() != 0 || empty.MeanMemBWUtil() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

// TestRunStatsMeansFixedOrder builds per-pod values whose float sum
// depends on the order they are added in, and demands that every across-pod
// mean comes out the same bits on every call: the sum must not follow map
// iteration order.
func TestRunStatsMeansFixedOrder(t *testing.T) {
	st := &RunStats{PerPod: map[string]*PodStats{}}
	for i := 0; i < 24; i++ {
		v := []float64{1e16, 1, -1e16, 0.1, 3.3e-7, 2.5}[i%6] * float64(i+1)
		st.PerPod[string(rune('a'+i))] = &PodStats{EMU: v, BEThroughput: -v, CPUUtil: v / 3, MemBWUtil: v * 7}
	}
	means := []struct {
		name string
		f    func() float64
	}{
		{"MeanEMU", st.MeanEMU},
		{"MeanBEThroughput", st.MeanBEThroughput},
		{"MeanCPUUtil", st.MeanCPUUtil},
		{"MeanMemBWUtil", st.MeanMemBWUtil},
	}
	for _, m := range means {
		first := math.Float64bits(m.f())
		for i := 0; i < 200; i++ {
			if got := math.Float64bits(m.f()); got != first {
				t.Fatalf("%s: call %d gave %x, first call %x", m.name, i, got, first)
			}
		}
	}
	if (&RunStats{}).MeanEMU() != 0 {
		t.Fatal("MeanEMU of no pods should be 0")
	}
}
