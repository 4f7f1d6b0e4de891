package profiler

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rhythm/internal/workload"
)

// cheapOpts is a deliberately small sweep so cache and determinism tests
// stay fast under -race.
func cheapOpts(seed uint64) Options {
	return Options{
		Levels:        []float64{0.3, 0.6, 0.85},
		LevelDuration: 2 * time.Second,
		Seed:          seed,
	}
}

func TestCachedRunSingleflight(t *testing.T) {
	resetCache()
	defer resetCache()

	const workers = 8
	profs := make([]*Profile, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Fresh Service value per goroutine, same content: the cache
			// keys by name + options, so all workers share one entry.
			profs[w], errs[w] = CachedRun(workload.Redis(), cheapOpts(7))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if profs[w] != profs[0] {
			t.Fatalf("worker %d received a different *Profile than worker 0", w)
		}
	}
	hits, misses := CacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", misses)
	}
	if hits != workers-1 {
		t.Fatalf("hits = %d, want %d", hits, workers-1)
	}

	// A different seed is a different key.
	other, err := CachedRun(workload.Redis(), cheapOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if other == profs[0] {
		t.Fatal("different seed returned the cached profile of another key")
	}
	if _, misses := CacheStats(); misses != 2 {
		t.Fatal("second key did not count as a miss")
	}
}

func TestProfileKeyExcludesJobs(t *testing.T) {
	a := cheapOpts(7)
	b := cheapOpts(7)
	b.Jobs = 16
	if ProfileKey(workload.Redis(), a) != ProfileKey(workload.Redis(), b) {
		t.Fatal("Jobs must not influence the cache key")
	}
	c := cheapOpts(7)
	c.UseTracer = true
	if ProfileKey(workload.Redis(), a) == ProfileKey(workload.Redis(), c) {
		t.Fatal("UseTracer must influence the cache key")
	}
	// Zero-value options normalize before keying, so "defaults spelled
	// out" and "defaults implied" share an entry.
	var zero, spelled Options
	spelled.Levels = zero.normalized().Levels
	spelled.LevelDuration = zero.normalized().LevelDuration
	spelled.TraceRequests = zero.normalized().TraceRequests
	if ProfileKey(workload.Redis(), zero) != ProfileKey(workload.Redis(), spelled) {
		t.Fatal("normalization must happen before keying")
	}
}

// TestSlackKeyNormalizes: the slacklimit key is built from the filled
// search options, so spelling out the defaults shares the zero value's
// entry, and Jobs stays out of the key.
func TestSlackKeyNormalizes(t *testing.T) {
	const pk = "Redis|levels=0.5|dwell=2s|seed=7|tracer=false|treq=600"
	for _, seed := range []uint64{0, 13} {
		zero := slackKey(pk, SlackOptions{Seed: seed})
		spelled := slackKey(pk, SlackOptions{Seed: seed, StepDuration: 150 * time.Second, Substeps: 4, Jobs: 3})
		if zero != spelled {
			t.Fatalf("seed %d: defaults implied %q, spelled out %q", seed, zero, spelled)
		}
	}
	if slackKey(pk, SlackOptions{Seed: 13}) == slackKey(pk, SlackOptions{Seed: 13, Substeps: 2}) {
		t.Fatal("Substeps must influence the slacklimit key")
	}
}

// TestParallelProfileMatchesSerial is the profiler-level determinism
// regression: a parallel sweep must produce the bit-identical profile.
func TestParallelProfileMatchesSerial(t *testing.T) {
	serialOpts := cheapOpts(11)
	serialOpts.Jobs = 1
	parallelOpts := cheapOpts(11)
	parallelOpts.Jobs = 4

	serial, err := Run(workload.Redis(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(workload.Redis(), parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.SLA != parallel.SLA {
		t.Fatalf("SLA differs: %v vs %v", serial.SLA, parallel.SLA)
	}
	if !reflect.DeepEqual(serial.LoadProfile, parallel.LoadProfile) {
		t.Fatalf("load profiles differ:\nserial   %+v\nparallel %+v",
			serial.LoadProfile, parallel.LoadProfile)
	}
	if !reflect.DeepEqual(serial.CoV, parallel.CoV) {
		t.Fatalf("CoV differs:\nserial   %v\nparallel %v", serial.CoV, parallel.CoV)
	}
	if !reflect.DeepEqual(serial.Contributions, parallel.Contributions) {
		t.Fatalf("contributions differ:\nserial   %v\nparallel %v",
			serial.Contributions, parallel.Contributions)
	}
	if !reflect.DeepEqual(serial.Loadlimits, parallel.Loadlimits) {
		t.Fatalf("loadlimits differ:\nserial   %v\nparallel %v",
			serial.Loadlimits, parallel.Loadlimits)
	}
}

// TestParallelSlacklimitsMatchSerial holds Algorithm 1 to the same
// standard: the trial matrix fans out, and a probe's first violating
// trial cancels its siblings, but the derived limits must not move at
// Jobs 1, 2 or 4. The search must meet violating probes, or the
// cancellation goes untested.
func TestParallelSlacklimitsMatchSerial(t *testing.T) {
	prof, err := Run(workload.Redis(), cheapOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	slackOpts := func(jobs int) SlackOptions {
		return SlackOptions{
			StepDuration: 30 * time.Second,
			Substeps:     2,
			Seed:         13,
			Jobs:         jobs,
		}
	}
	var serial map[string]float64
	for _, jobs := range []int{1, 2, 4} {
		var got map[string]float64
		sink := traced(func() { got, err = FindSlacklimits(prof, slackOpts(jobs)) })
		if err != nil {
			t.Fatal(err)
		}
		sink.check(t, fmt.Sprintf("jobs=%d", jobs))
		t.Logf("jobs=%d: %d trials, stops %v", jobs, sink.trials, sink.stops)
		if sink.stops["violation"] == 0 {
			t.Errorf("jobs=%d: no trial violated", jobs)
		}
		if serial == nil {
			serial = got
		} else if !reflect.DeepEqual(serial, got) {
			t.Fatalf("slacklimits differ:\nserial   %v\njobs=%d   %v", serial, jobs, got)
		}
	}
}

func TestCachedSlacklimitsReturnsCopy(t *testing.T) {
	resetCache()
	defer resetCache()

	prof, err := CachedRun(workload.Redis(), cheapOpts(11))
	if err != nil {
		t.Fatal(err)
	}
	key := ProfileKey(workload.Redis(), cheapOpts(11))
	opts := SlackOptions{StepDuration: 30 * time.Second, Substeps: 2, Seed: 13}
	first, err := CachedSlacklimits(key, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pod := range first {
		first[pod] = -1 // sweep experiments edit threshold maps; must not poison the cache
	}
	second, err := CachedSlacklimits(key, prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pod, v := range second {
		if v == -1 {
			t.Fatalf("cache returned the caller-mutated map (pod %s)", pod)
		}
	}
	if len(CachedKeys()) != 2 {
		t.Fatalf("expected 2 resident keys (profile + slack), got %v", CachedKeys())
	}
}

// resetCache drops every cached entry and zeroes the counters.
func resetCache() {
	profileCache.Reset()
	slackCache.Reset()
}
