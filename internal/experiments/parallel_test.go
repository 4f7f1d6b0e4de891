package experiments

import (
	"bytes"
	"context"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"

	"rhythm/internal/sim"
)

func TestRunAllReportsErrorsInPlace(t *testing.T) {
	results := sharedCtx.RunAll([]string{"fig2", "no-such-figure"}, 2)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Err != nil {
		t.Fatalf("fig2: %v", results[0].Err)
	}
	if results[0].Table == nil || results[0].ID != "fig2" {
		t.Fatalf("fig2 result malformed: %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("unknown experiment did not surface an error")
	}
}

// TestConcurrentSystemSingleflight hammers System from several goroutines
// and checks they all land on one deployment — the singleflight contract
// the -race run of this package verifies for data safety.
func TestConcurrentSystemSingleflight(t *testing.T) {
	const workers = 8
	ctx := NewContext(Options{Quick: true, Seed: 2020, Jobs: 4})
	systems := make([]interface{}, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			systems[w], errs[w] = ctx.System("Redis")
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if systems[w] != systems[0] {
			t.Fatalf("worker %d deployed a second Redis system", w)
		}
	}
}

// TestScratchRNGDeterministic pins the fork discipline: the stream depends
// only on (seed, label), never on call order or goroutine interleaving.
func TestScratchRNGDeterministic(t *testing.T) {
	a := sharedCtx.ScratchRNG("fig2")
	_ = sharedCtx.ScratchRNG("something-else") // unrelated fork must not disturb a's stream
	b := sharedCtx.ScratchRNG("fig2")
	for i := 0; i < 16; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
	if sharedCtx.ScratchRNG("fig2").Float64() == sharedCtx.ScratchRNG("fig6").Float64() {
		t.Fatal("distinct labels produced identical first draws")
	}
}

// goroutineLabels returns the label sets the goroutine profile lists for
// the live goroutines, one `{...}` string per distinct stack group.
func goroutineLabels(t *testing.T) []string {
	t.Helper()
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	var sets []string
	for _, line := range strings.Split(b.String(), "\n") {
		if l, ok := strings.CutPrefix(line, "# labels: "); ok {
			sets = append(sets, l)
		}
	}
	return sets
}

// TestChargeLabelsSharedWork: charged work runs under its own work label
// alone, not the asking experiment's; the caller's labels survive the
// call; and a panic in the work reaches the caller.
func TestChargeLabelsSharedWork(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("experiment", "figX"), func(context.Context) {
		var inside []string
		charge("deploy/Test", func() { inside = goroutineLabels(t) })
		if !slices.Contains(inside, `{"work":"deploy/Test"}`) {
			t.Errorf("charged work's labels %q lack work=deploy/Test alone", inside)
		}
		if after := goroutineLabels(t); !slices.Contains(after, `{"experiment":"figX"}`) {
			t.Errorf("caller's labels %q lost experiment=figX", after)
		}
	})
	defer func() {
		wp, ok := recover().(*sim.WorkerPanic)
		if !ok || wp.Value != "boom" {
			t.Fatalf("recovered %v, want the work's panic", wp)
		}
		if !strings.Contains(string(wp.Stack), "gridWork") {
			t.Fatalf("re-raised panic's stack does not name the panicking function:\n%s", wp.Stack)
		}
	}()
	charge("grid", gridWork)
}

// gridWork is charged work that panics, named so the re-raised panic's
// stack can be checked for it.
func gridWork() { panic("boom") }
