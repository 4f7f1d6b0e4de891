package experiments

import (
	"sync"
	"testing"
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
