package profiler

import (
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/obs"
	"rhythm/internal/workload"
)

// trialCounter counts Algorithm 1's trial engine runs on the obs bus.
type trialCounter struct {
	mu     sync.Mutex
	trials int
}

func (c *trialCounter) Emit(ev *obs.Event) {
	if ev.Kind == obs.KindRun && ev.Op == "start" && strings.HasPrefix(ev.Scope, "slack-trial:") {
		c.mu.Lock()
		c.trials++
		c.mu.Unlock()
	}
}

func (c *trialCounter) Close() error { return nil }

// TestQuickSlacklimitsPinned deploys the six Table 1 services at the
// quick options `run all -quick -seed 2020` uses and pins every
// slacklimit bit for bit, plus the number of slack-trial engine runs.
// Once a confirmation re-run has given a violating probe its second vote,
// the other re-run cannot change the verdict and is skipped: 6 of the 19
// violating probes confirm on the first re-run, which saves 6 probes × 6
// trial combinations (1464 runs before the skip).
func TestQuickSlacklimitsPinned(t *testing.T) {
	want := map[string]map[string]float64{
		"E-commerce":    {"Amoeba": 0.12, "Haproxy": 0.12, "MySQL": 1, "Tomcat": 0.39250889954102236},
		"Redis":         {"Master": 0.5599999999999996, "Slave": 0.12},
		"Solr":          {"Apache+Solr": 0.37999999999999945, "Zookeeper": 0.12},
		"Elasticsearch": {"Index": 0.5499999999999996, "Kibana": 0.12},
		"Elgg":          {"Memcached": 0.12, "MySQL": 0.5034415539156641, "Nginx+PHP-FPM": 0.5407416807379225},
		"SNMS":          {"MediaService": 0.4193115076077447, "UserService": 0.8260314735465835, "frontend": 0.12},
	}
	const wantTrials = 1428

	sink := &trialCounter{}
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()
	for _, svc := range workload.Services() {
		prof, err := Run(svc, Options{
			Levels:        []float64{0.1, 0.3, 0.5, 0.65, 0.75, 0.85, 0.93},
			LevelDuration: 5 * time.Second,
			UseTracer:     true,
			TraceRequests: 300,
			Seed:          2020,
			Jobs:          2,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := FindSlacklimits(prof, SlackOptions{StepDuration: 80 * time.Second, Seed: 2021, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := want[svc.Name]
		if len(got) != len(w) {
			t.Fatalf("%s: slacklimits %v, want %v", svc.Name, got, w)
		}
		for pod, v := range w {
			if got[pod] != v {
				t.Errorf("%s/%s: slacklimit %v, want %v", svc.Name, pod, got[pod], v)
			}
		}
	}
	if sink.trials != wantTrials {
		t.Errorf("%d slack-trial engine runs, want %d", sink.trials, wantTrials)
	}
}
