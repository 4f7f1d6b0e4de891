package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 7, 64} {
		n := 100
		hits := make([]int32, n)
		ForEach(n, jobs, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d visited %d times", jobs, i, h)
			}
		}
	}
	// n <= 0 is a no-op.
	ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
	ForEach(-3, 4, func(int) { t.Fatal("fn called for n<0") })
}

func TestForEachResultsIndependentOfJobs(t *testing.T) {
	// The isolated-writes contract: per-index slots assembled in order
	// give identical results for any worker count.
	run := func(jobs int) []uint64 {
		out := make([]uint64, 64)
		ForEach(len(out), jobs, func(i int) {
			r := NewRNG(SubSeed(99, fmt.Sprintf("item/%d", i)))
			out[i] = r.Uint64()
		})
		return out
	}
	serial := run(1)
	for _, jobs := range []int{2, 4, 16} {
		got := run(jobs)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("jobs=%d: slot %d = %d, serial %d", jobs, i, got[i], serial[i])
			}
		}
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) error {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		return ForEachErr(20, 8, func(i int) error {
			if isBad[i] {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
	}
	if err := errAt(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	// Regardless of scheduling, the reported error is the serial-first one.
	for trial := 0; trial < 10; trial++ {
		err := errAt(17, 3, 11)
		if err == nil || err.Error() != "fail@3" {
			t.Fatalf("got %v, want fail@3", err)
		}
	}
}

func TestForEachErrSerialPath(t *testing.T) {
	want := errors.New("boom")
	err := ForEachErr(5, 1, func(i int) error {
		if i == 2 {
			return want
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("jobs=%d: panic did not propagate", jobs)
				}
				wp, ok := r.(*WorkerPanic)
				if !ok || wp.Value != "kaboom" {
					t.Fatalf("jobs=%d: re-raised %#v, want a *WorkerPanic of kaboom", jobs, r)
				}
				if !strings.Contains(string(wp.Stack), "sim.panicAtFive") ||
					!strings.Contains(wp.Error(), "sim.panicAtFive") {
					t.Fatalf("jobs=%d: re-raised panic does not name the panicking function:\n%s", jobs, wp.Error())
				}
			}()
			ForEach(10, jobs, panicAtFive)
		}()
	}
	// A panic from a nested pool keeps its innermost stack.
	func() {
		defer func() {
			wp, ok := recover().(*WorkerPanic)
			if !ok || wp.Value != "kaboom" || !strings.Contains(string(wp.Stack), "sim.panicAtFive") {
				t.Fatalf("nested pool re-raised %v", wp)
			}
		}()
		ForEach(2, 2, func(int) { ForEach(10, 2, panicAtFive) })
	}()
}

// panicAtFive is a ForEach body that panics at index 5, named so the
// re-raised panic's stack can be checked for it.
func panicAtFive(i int) {
	if i == 5 {
		panic("kaboom")
	}
}

func TestJobsDefault(t *testing.T) {
	if Jobs(3) != 3 {
		t.Fatal("positive request not honored")
	}
	if Jobs(0) < 1 || Jobs(-1) < 1 {
		t.Fatal("default must be at least 1")
	}
}

func TestMemoSingleflight(t *testing.T) {
	var m Memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	const waiters = 7
	results := make([]int, waiters+1)
	hits := make([]bool, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], hits[0], _ = m.Do("k", func() (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	for w := 1; w <= waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], hits[w], _ = m.Do("k", func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
		}(w)
	}
	// Every later arrival counts as a hit while the first call still runs.
	for {
		h, misses := m.Stats()
		if misses != 1 {
			t.Fatalf("misses = %d while in flight, want 1", misses)
		}
		if h == waiters {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for w, v := range results {
		if v != 42 || hits[w] != (w > 0) {
			t.Fatalf("arrival %d: value %d, hit %t", w, v, hits[w])
		}
	}
}

func TestMemoCachesErrors(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := m.Do(1, func() (string, error) { calls++; return "partial", boom })
		if err != boom || v != "partial" || hit != (i > 0) {
			t.Fatalf("call %d: (%q, %t, %v)", i, v, hit, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1", calls)
	}
	if hits, misses := m.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses, want 2, 1", hits, misses)
	}
}

func TestMemoKeysAndReset(t *testing.T) {
	var m Memo[string, int]
	if len(m.Keys()) != 0 {
		t.Fatal("zero Memo has keys")
	}
	for _, k := range []string{"b", "a", "b", "c"} {
		m.Do(k, func() (int, error) { return len(k), nil })
	}
	keys := m.Keys()
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("keys = %v", keys)
	}
	m.Reset()
	if hits, misses := m.Stats(); hits != 0 || misses != 0 || len(m.Keys()) != 0 {
		t.Fatalf("after Reset: %d hits, %d misses, keys %v", hits, misses, m.Keys())
	}
	// A reset key computes afresh.
	if v, hit, _ := m.Do("a", func() (int, error) { return 7, nil }); v != 7 || hit {
		t.Fatalf("after Reset: (%d, %t), want (7, false)", v, hit)
	}
}
