package profiler

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/obs"
	"rhythm/internal/workload"
)

// bracketSink records Algorithm 1's trial engine runs from their obs run
// brackets: starts, the stop of each end, and any bracket defect.
type bracketSink struct {
	mu      sync.Mutex
	open    map[string]int
	trials  int
	stops   map[string]int
	defects []string
}

func newBracketSink() *bracketSink {
	return &bracketSink{open: map[string]int{}, stops: map[string]int{}}
}

// endReason is a trial's end bracket: how the run stopped, then Run's
// violations=N, which is 1 exactly when the run stopped at a violation.
var endReason = regexp.MustCompile(`^stop=(end|violation|cancel) violations=(\d+)$`)

func (s *bracketSink) Emit(ev *obs.Event) {
	if ev.Kind != obs.KindRun || !strings.HasPrefix(ev.Scope, "slack-trial:") {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Op {
	case "start":
		s.open[ev.Scope]++
		s.trials++
	case "end":
		if s.open[ev.Scope] == 0 {
			s.defects = append(s.defects, "end without start: "+ev.Scope)
			return
		}
		s.open[ev.Scope]--
		m := endReason.FindStringSubmatch(ev.Reason)
		if m == nil || (m[1] == "violation") != (m[2] == "1") || (m[1] != "violation" && m[2] != "0") {
			s.defects = append(s.defects, fmt.Sprintf("%s: end reason %q", ev.Scope, ev.Reason))
			return
		}
		s.stops[m[1]]++
	}
}

func (s *bracketSink) Close() error { return nil }

// check reports bracket defects and runs left open.
func (s *bracketSink) check(t *testing.T, what string) {
	t.Helper()
	for _, d := range s.defects {
		t.Errorf("%s: %s", what, d)
	}
	for scope, n := range s.open {
		if n != 0 {
			t.Errorf("%s: %d runs of %s never ended", what, n, scope)
		}
	}
}

// traced runs fn with a fresh bracketSink installed on the obs bus.
func traced(fn func()) *bracketSink {
	sink := newBracketSink()
	obs.Install(obs.NewBus(sink))
	defer obs.Uninstall()
	fn()
	return sink
}

var quick struct {
	once  sync.Once
	profs []*Profile
	err   error
}

// quickProfiles profiles the six Table 1 services at the quick options
// `run all -quick -seed 2020` uses, once per test binary.
func quickProfiles(t *testing.T) []*Profile {
	t.Helper()
	quick.once.Do(func() {
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
				quick.err = err
				return
			}
			quick.profs = append(quick.profs, prof)
		}
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.profs
}

// TestQuickSlacklimitsPinned deploys the six Table 1 services at the
// quick options `run all -quick -seed 2020` uses and pins every
// slacklimit bit for bit, untraced at Jobs 2 and under an obs bus at Jobs
// 1 and 2 (cold traced searches must find the untraced limits), plus the
// number of slack-trial engine runs and their balanced run brackets. Once a confirmation re-run has
// given a violating probe its second vote, the other re-run cannot change
// the verdict and is skipped: 6 of the 19 violating probes confirm on the
// first re-run, which saves 6 probes × 6 trial combinations (1464 runs
// before the skip, 1428 after). A probe's first violating trial cancels
// the rest of its matrix, and cancelled trials that had not started run
// no engine: at Jobs 1, which claims combos in order, that leaves
// serialTrials runs. At Jobs 2 every combo up to the first violating one
// still starts, and a sibling already running when a trial violates
// starts too, so the count lies between the two.
func TestQuickSlacklimitsPinned(t *testing.T) {
	want := map[string]map[string]float64{
		"E-commerce":    {"Amoeba": 0.12, "Haproxy": 0.12, "MySQL": 1, "Tomcat": 0.39250889954102236},
		"Redis":         {"Master": 0.5599999999999996, "Slave": 0.12},
		"Solr":          {"Apache+Solr": 0.37999999999999945, "Zookeeper": 0.12},
		"Elasticsearch": {"Index": 0.5499999999999996, "Kibana": 0.12},
		"Elgg":          {"Memcached": 0.12, "MySQL": 0.5034415539156641, "Nginx+PHP-FPM": 0.5407416807379225},
		"SNMS":          {"MediaService": 0.4193115076077447, "UserService": 0.8260314735465835, "frontend": 0.12},
	}
	const serialTrials, allTrials = 1372, 1428
	quickSlack := func(jobs int) SlackOptions {
		return SlackOptions{StepDuration: 80 * time.Second, Seed: 2021, Jobs: jobs}
	}

	search := func(jobs int) {
		for _, prof := range quickProfiles(t) {
			got, err := FindSlacklimits(prof, quickSlack(jobs))
			if err != nil {
				t.Fatal(err)
			}
			if w := want[prof.Service.Name]; !reflect.DeepEqual(got, w) {
				t.Errorf("jobs=%d %s: slacklimits %v, want %v", jobs, prof.Service.Name, got, w)
			}
		}
	}
	search(2)
	for _, jobs := range []int{1, 2} {
		what := fmt.Sprintf("traced jobs=%d", jobs)
		sink := traced(func() { search(jobs) })
		sink.check(t, what)
		if jobs == 1 && (sink.trials != serialTrials || sink.stops["cancel"] != 0) {
			t.Errorf("%s: %d slack-trial engine runs, %d cancelled; want %d, none", what, sink.trials, sink.stops["cancel"], serialTrials)
		}
		if sink.trials < serialTrials || sink.trials > allTrials {
			t.Errorf("%s: %d slack-trial engine runs, want %d..%d", what, sink.trials, serialTrials, allTrials)
		}
	}
}

// TestTrialVerdictMatchesRun holds every Algorithm 1 trial shape to the
// full run: for each quick profile, BE composition, trial load and seed,
// under the tightest and the contribution-derived slacklimits, the
// verdict the search reads (engine.Violates) equals Run(d).Violations > 0
// on a fresh engine of the same trial.
func TestTrialVerdictMatchesRun(t *testing.T) {
	opts := SlackOptions{StepDuration: 80 * time.Second}.normalized()
	seen := map[bool]int{}
	for _, prof := range quickProfiles(t) {
		tight, derived := map[string]float64{}, map[string]float64{}
		for _, c := range prof.Contributions {
			tight[c.Pod] = minSlacklimit
			derived[c.Pod] = max(c.Normalized, minSlacklimit)
		}
		for _, limits := range []map[string]float64{tight, derived} {
			for si, bes := range slackSets {
				for _, tl := range trialLoads(prof) {
					for seed := uint64(1); seed <= 2; seed++ {
						opts.Seed = seed
						iter := uint64(si + 1)
						full, err := trialEngine(prof, limits, opts, bes, trialPattern(tl, opts), iter)
						if err != nil {
							t.Fatal(err)
						}
						st, err := full.Run(opts.StepDuration)
						if err != nil {
							t.Fatal(err)
						}
						got, err := trialRun(context.Background(), prof, limits, opts, bes, trialPattern(tl, opts), iter)
						if err != nil {
							t.Fatal(err)
						}
						if want := st.Violations > 0; got != want {
							t.Errorf("%s %v load=%g seed=%d limits=%v: verdict %v, Run counted %d violations",
								prof.Service.Name, bes, tl, seed, limits, got, st.Violations)
						}
						seen[got]++
					}
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("verdicts %v: the table must hold violating and passing trials", seen)
	}
	t.Logf("verdicts %v", seen)
}
