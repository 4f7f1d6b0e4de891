package profiler

import (
	"fmt"
	"sort"
	"strings"

	"rhythm/internal/obs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// This file implements the shared, content-keyed profile cache. Profiling
// is by far the most expensive step of Deploy ("profile LC once", §3.2),
// and every consumer in one process — core.Deploy, the experiment
// registry, `rhythm profile` — wants the profile of the same (service,
// options, seed) triple. The cache turns those repeated solo sweeps into
// lookups.
//
// Cache-key contract: a key is the service NAME plus every option that
// influences the result (levels, dwell, tracer settings, seed). Two rules
// keep this sound:
//
//  1. Anything that changes the output must be in the key. The workload
//     catalog is static — a name denotes one immutable spec — so the name
//     stands in for the service's content. Callers that hand-build or
//     mutate Service values must not use the cached entry points.
//  2. Anything that must NOT change the output stays out of the key.
//     Jobs (worker count) is the canonical example: the determinism tests
//     assert that parallel and serial sweeps produce identical profiles,
//     which is exactly the property that makes omitting Jobs sound.
//
// Cached values are shared: every hit returns the same *Profile pointer,
// so consumers must treat profiles as immutable (CachedSlacklimits returns
// a fresh map copy instead, because threshold maps are routinely edited by
// sweep experiments). Both caches are sim.Memo singleflight caches:
// concurrent misses on one key run the computation once and everyone
// blocks for the result.

var (
	profileCache sim.Memo[string, *Profile]
	slackCache   sim.Memo[string, map[string]float64]
)

// ProfileKey returns the cache key for profiling svc under opts: the
// service name plus the normalized sweep options, excluding Jobs.
func ProfileKey(svc *workload.Service, opts Options) string {
	o := opts.normalized()
	levels := make([]string, len(o.Levels))
	for i, l := range o.Levels {
		levels[i] = fmt.Sprintf("%g", l)
	}
	return fmt.Sprintf("%s|levels=%s|dwell=%s|seed=%d|tracer=%t|treq=%d",
		svc.Name, strings.Join(levels, ","), o.LevelDuration, o.Seed,
		o.UseTracer, o.TraceRequests)
}

// slackKey returns the cache key for the Algorithm 1 search under opts:
// the profile key (which pins down the profile the trial loads derive
// from) plus the normalized search options, excluding Jobs.
func slackKey(profileKey string, opts SlackOptions) string {
	o := opts.normalized()
	return fmt.Sprintf("%s|slack|step=%s|sub=%d|seed=%d", profileKey, o.StepDuration, o.Substeps, o.Seed)
}

// CachedRun is Run behind the content-keyed cache: the first call for a
// (service name, options, seed) key profiles, every later call — from any
// goroutine — returns the same *Profile. The caller must treat the profile
// as read-only.
func CachedRun(svc *workload.Service, opts Options) (*Profile, error) {
	key := ProfileKey(svc, opts)
	prof, hit, err := profileCache.Do(key, func() (*Profile, error) {
		cacheEvent("profile", key, false)
		return Run(svc, opts)
	})
	if hit {
		cacheEvent("profile", key, true)
	}
	return prof, err
}

// cacheEvent reports one lookup on the observability bus (free when no bus
// is installed). A "hit" is any arrival at an existing key, including those
// that block on the in-flight first computation — the same accounting
// CacheStats uses. A miss reports before its computation starts, a hit
// once its value is ready.
func cacheEvent(cache, key string, hit bool) {
	bus := obs.Active()
	if bus == nil {
		return
	}
	bus.Scope("profile-cache").Cache(cache, key, hit)
	result := "miss"
	if hit {
		result = "hit"
	}
	bus.Counter("rhythm_profile_cache_total", "cache", cache, "result", result).Inc()
}

// CachedSlacklimits is FindSlacklimits behind the cache. profileKey must
// be the ProfileKey the profile was computed under — it pins the profile
// content into the slacklimit key. Each call returns a fresh copy of the
// limits map, since callers routinely modify threshold maps (Fig. 18 /
// Table 2 sweeps).
func CachedSlacklimits(profileKey string, prof *Profile, opts SlackOptions) (map[string]float64, error) {
	key := slackKey(profileKey, opts)
	sl, hit, err := slackCache.Do(key, func() (map[string]float64, error) {
		cacheEvent("slacklimit", key, false)
		return FindSlacklimits(prof, opts)
	})
	if hit {
		cacheEvent("slacklimit", key, true)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(sl))
	for k, v := range sl {
		out[k] = v
	}
	return out, nil
}

// CacheStats reports cumulative hits and misses across both the profile
// and the slacklimit cache (a miss is the first arrival at a key; the
// arrivals that block on an in-flight computation count as hits).
func CacheStats() (hits, misses uint64) {
	ph, pm := profileCache.Stats()
	sh, sm := slackCache.Stats()
	return ph + sh, pm + sm
}

// CachedKeys returns the sorted keys currently resident, for debugging and
// tests.
func CachedKeys() []string {
	out := append(profileCache.Keys(), slackCache.Keys()...)
	sort.Strings(out)
	return out
}
