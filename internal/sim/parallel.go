package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"rhythm/internal/obs"
)

// This file holds the worker-pool primitives every parallel sweep in the
// repository is built on. The contract that keeps parallel runs
// bit-identical to serial ones is simple and strict:
//
//   - fn(i) must depend only on i and on state that is read-only for the
//     duration of the ForEach call (typically: an options struct and a
//     seed derived from i or from content, never from a shared RNG);
//   - fn(i) must write only to the i-th slot of pre-sized result slices,
//     never append to shared slices or write shared maps;
//   - the caller assembles results in index order after ForEach returns.
//
// Under these rules the worker count changes wall-clock time and nothing
// else, which is what the determinism regression tests assert.

// Jobs resolves a requested worker count: n itself when positive,
// otherwise runtime.NumCPU(). Centralizing the default keeps `-jobs`,
// Options.Jobs fields and test helpers consistent.
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// ForEach runs fn(i) for every i in [0, n) on up to jobs worker
// goroutines (jobs <= 0 selects runtime.NumCPU()). Indices are claimed
// from an atomic counter, so the assignment of indices to workers is
// nondeterministic — fn must follow the isolated-writes contract above.
// With jobs == 1 (or n <= 1) the calls happen inline on the caller's
// goroutine in index order, exactly like the pre-parallel code.
//
// A panic in any fn is captured and re-raised on the calling goroutine
// after all workers have drained, so a crashing sweep fails the caller
// rather than the whole process. The re-raised value is a *WorkerPanic
// carrying the panicking goroutine's stack, at every worker count.
func ForEach(n, jobs int, fn func(i int)) {
	if n <= 0 {
		return
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	// Observability: one dispatch event per fan-out plus a live-worker
	// gauge. The nil-safe instruments make this free when no bus is
	// installed, and the bus never touches any RNG stream, so tracing
	// cannot perturb the sweep (DESIGN.md §8).
	var occupancy *obs.Gauge
	if bus := obs.Active(); bus != nil {
		bus.Scope("pool").Pool(n, jobs)
		bus.Counter("rhythm_pool_dispatch_total").Inc()
		occupancy = bus.Gauge("rhythm_pool_active_workers")
	}

	if jobs <= 1 {
		occupancy.Add(1)
		defer occupancy.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				panic(Recovered(r))
			}
		}()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *WorkerPanic
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			occupancy.Add(1)
			defer occupancy.Add(-1)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							wp := Recovered(r)
							panicMu.Lock()
							if panicked == nil {
								panicked = wp
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// WorkerPanic is the value ForEach, and any runner of work on a goroutine
// of its own, re-raises for a recovered panic: the original value and the
// stack of the goroutine that panicked, which a re-raise on the caller's
// goroutine would otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error reports the original value and the stack it panicked on, which is
// what the process prints if the re-raised panic is never recovered.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\npanicking goroutine's stack:\n%s", p.Value, p.Stack)
}

// Recovered wraps r, a value recover returned, with the current
// goroutine's stack; call it in the deferred function that recovered, so
// the stack still holds the panicking frames. A *WorkerPanic passes
// through as it is, keeping the innermost stack when pools nest.
func Recovered(r any) *WorkerPanic {
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Value: r, Stack: debug.Stack()}
}

// ForEachErr is ForEach for fallible work: it collects one error per
// index and returns the error with the lowest index, so the reported
// failure is the same one a serial loop would have hit first, regardless
// of which worker ran it. All n calls are attempted even after a failure
// (sweeps are cheap relative to the cost of losing determinism in
// error reporting).
func ForEachErr(n, jobs int, fn func(i int) error) error {
	errs := make([]error, n)
	ForEach(n, jobs, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Memo is a keyed singleflight cache: the first Do for a key runs fn, and
// every later Do for that key — from any goroutine, including those that
// arrive while fn is still running — waits for that one call and returns
// its value and error. Errors are cached like values. It is the cache
// behind every profile-once artifact (the profiler's profile and
// slacklimit caches, an experiment context's deployments and grid cells);
// the zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu           sync.Mutex
	m            map[K]*memoEntry[V]
	hits, misses uint64
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns the value for key, computing it with fn on the key's first
// arrival. hit reports whether the key already existed, so an arrival
// that blocks on the in-flight first computation counts as a hit. A panic
// in fn propagates to the first caller and leaves later callers the zero
// value, as sync.Once does.
func (c *Memo[K, V]) Do(key K, fn func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, hit := c.m[key]
	if hit {
		c.hits++
	} else {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		c.m[key] = e
		c.misses++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, hit, e.err
}

// Stats reports cumulative hits and misses (a miss is a key's first
// arrival).
func (c *Memo[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Keys returns the resident keys in no particular order.
func (c *Memo[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	return out
}

// Reset drops every entry and zeroes the counters. Calls in flight finish
// against the dropped entries.
func (c *Memo[K, V]) Reset() {
	c.mu.Lock()
	c.m, c.hits, c.misses = nil, 0, 0
	c.mu.Unlock()
}
