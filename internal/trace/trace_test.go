package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// soloSojourns returns per-component sojourn distributions at the given
// fraction of max load.
func soloSojourns(svc *workload.Service, frac float64) map[string]queueing.Sojourn {
	out := make(map[string]queueing.Sojourn)
	for _, c := range svc.Components {
		out[c.Name] = c.Station.Solo(frac * svc.MaxLoadQPS)
	}
	return out
}

func generate(t *testing.T, svc *workload.Service, opts GenOptions) ([]Event, *Truth, *Topology) {
	t.Helper()
	tp := NewTopology(svc)
	evs, truth, err := Generate(tp, soloSojourns(svc, 0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	return evs, truth, tp
}

func TestTracerRecoversExactSojournsWithoutInterleaving(t *testing.T) {
	svc := workload.ECommerce()
	// Rate low enough that requests never overlap: blocking behaviour.
	evs, truth, tp := generate(t, svc, GenOptions{Requests: 200, Rate: 2, Threads: 8, Seed: 1})
	res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Fatalf("requests = %d, want 200", res.Requests)
	}
	for _, c := range svc.Components {
		want := truth.MeanSojourn(c.Name)
		got := res.PerPod[c.Name].MeanPerRequest
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("%s: tracer mean %v vs truth %v", c.Name, got, want)
		}
		if res.PerPod[c.Name].UnmatchedSends != 0 {
			t.Errorf("%s: unmatched sends in blocking mode", c.Name)
		}
	}
}

func TestMeanInvarianceUnderNonBlockingInterleaving(t *testing.T) {
	// The §3.3 identity: with few threads and high rate, requests overlap
	// on shared thread contexts and individual pairings mismatch, but
	// per-pod sojourn means are exactly preserved.
	svc := workload.ECommerce()
	evs, truth, tp := generate(t, svc, GenOptions{
		Requests: 500, Rate: 800, Threads: 2, Persistent: true, Seed: 7,
	})
	res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range svc.Components {
		want := truth.MeanSojourn(c.Name)
		got := res.PerPod[c.Name].MeanPerRequest
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("%s: mean not invariant: tracer %v vs truth %v", c.Name, got, want)
		}
	}
	// Mean end-to-end latency is likewise invariant under ACCEPT/CLOSE
	// FIFO pairing (the client-visible close trails by half a net delay).
	wantE2E := sim.Mean(truth.E2E)
	if math.Abs(res.MeanE2E()-wantE2E)/wantE2E > 0.02 {
		t.Errorf("mean e2e %v vs truth %v", res.MeanE2E(), wantE2E)
	}
}

func TestNoiseFiltering(t *testing.T) {
	svc := workload.Redis()
	clean, _, tp := generate(t, svc, GenOptions{Requests: 300, Rate: 50, Threads: 4, Seed: 3})
	noisy, _, _ := generate(t, svc, GenOptions{Requests: 300, Rate: 50, Threads: 4, Seed: 3, NoiseEvents: 500})

	rc, err := Analyze(clean, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Analyze(noisy, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Filtered <= rc.Filtered {
		t.Fatalf("noise not filtered: %d vs %d", rn.Filtered, rc.Filtered)
	}
	for _, c := range svc.Components {
		a, b := rc.PerPod[c.Name].MeanPerRequest, rn.PerPod[c.Name].MeanPerRequest
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("%s: noise changed the analysis: %v vs %v", c.Name, a, b)
		}
	}
}

func TestClientEventsAreFiltered(t *testing.T) {
	svc := workload.Redis()
	evs, _, tp := generate(t, svc, GenOptions{Requests: 10, Rate: 5, Threads: 4, Seed: 9})
	res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	// Each request emits one client SEND and one client RECV.
	if res.Filtered < 20 {
		t.Fatalf("client events not filtered: %d", res.Filtered)
	}
}

func TestE2EMatchesTruthPerRequestWhenBlocking(t *testing.T) {
	svc := workload.Solr()
	evs, truth, tp := generate(t, svc, GenOptions{Requests: 100, Rate: 1, Threads: 8, Seed: 11})
	res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.E2Es) != len(truth.E2E) {
		t.Fatalf("e2e count %d vs %d", len(res.E2Es), len(truth.E2E))
	}
	// Tail estimate from the tracer tracks the truth tail.
	gotTail, wantTail := res.TailE2E(0.99), sim.Quantile(truth.E2E, 0.99)
	if math.Abs(gotTail-wantTail)/wantTail > 0.02 {
		t.Fatalf("p99 %v vs truth %v", gotTail, wantTail)
	}
}

func TestFanOutUnmatchedSendsDocumentedBehaviour(t *testing.T) {
	// The strict FIFO context pairing of §3.3 leaves the second SEND of a
	// fan-out burst unmatched; the paper (and this repo) use the built-in
	// tracer for the fan-out SNMS workload instead.
	svc := workload.SNMS()
	evs, _, tp := generate(t, svc, GenOptions{Requests: 100, Rate: 10, Threads: 8, Seed: 5})
	res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerPod["frontend"].UnmatchedSends == 0 {
		t.Fatal("expected unmatched sends at the fan-out pod")
	}
	// Leaf pods remain exact.
	if res.PerPod["UserService"].UnmatchedSends != 0 {
		t.Fatal("leaf pods should pair cleanly")
	}
}

func TestCPGAcyclicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		svc := workload.ECommerce()
		tp := NewTopology(svc)
		r := sim.NewRNG(seed)
		evs, _, err := Generate(tp, soloSojourns(svc, 0.3), GenOptions{
			Requests:   20 + r.Intn(50),
			Rate:       1 + r.Float64()*500,
			Threads:    1 + r.Intn(6),
			Persistent: r.Float64() < 0.5,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		g := BuildCPG(evs, tp.Pods)
		return g.Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCPGEdgeCounts(t *testing.T) {
	svc := workload.ECommerce() // 4-pod chain
	evs, _, tp := generate(t, svc, GenOptions{Requests: 50, Rate: 5, Threads: 8, Seed: 13})
	g := BuildCPG(evs, tp.Pods)
	var ctxE, msgE int
	for _, e := range g.Edges {
		switch e.Kind {
		case ContextEdge:
			ctxE++
		case MessageEdge:
			msgE++
		default:
			t.Fatalf("unknown edge kind %v", e.Kind)
		}
		if g.Events[e.From].At > g.Events[e.To].At {
			t.Fatal("causal edge pointing backward in time")
		}
	}
	// Chain of 4 pods: 7 context pairs per request (2 per non-leaf pod,
	// 1 at the leaf); 6 inter-pod transfers per request (3 forward, 3
	// replies).
	if ctxE != 50*7 {
		t.Fatalf("context edges = %d, want %d", ctxE, 50*7)
	}
	if msgE != 50*6 {
		t.Fatalf("message edges = %d, want %d", msgE, 50*6)
	}
}

func TestMeanInvarianceProperty(t *testing.T) {
	// Property: for chain services, under any thread count, rate and
	// connection persistence, tracer means equal ground-truth means.
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		svcs := []*workload.Service{workload.ECommerce(), workload.Redis(), workload.Elgg()}
		svc := svcs[r.Intn(len(svcs))]
		tp := NewTopology(svc)
		evs, truth, err := Generate(tp, soloSojourns(svc, 0.2+0.6*r.Float64()), GenOptions{
			Requests:   30 + r.Intn(100),
			Rate:       1 + r.Float64()*1000,
			Threads:    1 + r.Intn(8),
			Persistent: r.Float64() < 0.5,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		res, err := Analyze(evs, tp.Pods, svc.Graph.Comp)
		if err != nil {
			return false
		}
		for _, c := range svc.Components {
			want := truth.MeanSojourn(c.Name)
			got := res.PerPod[c.Name].MeanPerRequest
			// Event timestamps quantize to nanoseconds, so allow an
			// absolute ns-scale term besides the relative tolerance.
			if want <= 0 || math.Abs(got-want) > 1e-6*want+1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateValidation(t *testing.T) {
	svc := workload.Redis()
	tp := NewTopology(svc)
	sj := soloSojourns(svc, 0.5)
	if _, _, err := Generate(tp, sj, GenOptions{Requests: 0, Rate: 1}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, _, err := Generate(tp, sj, GenOptions{Requests: 10, Rate: 0}); err == nil {
		t.Fatal("zero rate accepted")
	}
	delete(sj, "Slave")
	if _, _, err := Generate(tp, sj, GenOptions{Requests: 10, Rate: 1}); err == nil {
		t.Fatal("missing sojourn distribution accepted")
	}
}

func TestAnalyzeValidation(t *testing.T) {
	svc := workload.Redis()
	evs, _, tp := generate(t, svc, GenOptions{Requests: 5, Rate: 1, Threads: 2, Seed: 1})
	if _, err := Analyze(evs, nil, "Master"); err == nil {
		t.Fatal("no pods accepted")
	}
	if _, err := Analyze(evs, tp.Pods, "Ghost"); err == nil {
		t.Fatal("unknown entry pod accepted")
	}
	if _, err := Analyze(nil, tp.Pods, "Master"); err == nil {
		t.Fatal("empty log should fail: no requests found")
	}
}

func TestEventTypeString(t *testing.T) {
	for ty, want := range map[EventType]string{
		Accept: "ACCEPT", Recv: "RECV", Send: "SEND", Close: "CLOSE",
	} {
		if ty.String() != want {
			t.Errorf("%d = %q", ty, ty.String())
		}
	}
	if EventType(9).String() != "event(9)" {
		t.Error("unknown event type")
	}
}

func TestMsgIDReverse(t *testing.T) {
	m := MsgID{SrcIP: "a", SrcPort: 1, DstIP: "b", DstPort: 2, Size: 10}
	r := m.Reverse(99)
	if r.SrcIP != "b" || r.SrcPort != 2 || r.DstIP != "a" || r.DstPort != 1 || r.Size != 99 {
		t.Fatalf("reverse = %+v", r)
	}
}

func TestPersistentConnectionsShareMsgIDs(t *testing.T) {
	svc := workload.Redis()
	tp := NewTopology(svc)
	evs, _, err := Generate(tp, soloSojourns(svc, 0.5), GenOptions{
		Requests: 50, Rate: 100, Threads: 2, Persistent: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct pod-to-pod message identifiers: with 2 threads and
	// one pod pair there are at most 2 forward five-tuples.
	ids := map[MsgID]bool{}
	for _, e := range evs {
		if e.Type == Send && e.Ctx.Program == "Master" && e.Msg.DstPort == 8001 {
			ids[e.Msg] = true
		}
	}
	if len(ids) > 2 {
		t.Fatalf("persistent connections should share identifiers, got %d distinct", len(ids))
	}
}

// TestGenerateSizesAndSortsEvents checks, for every shipped service, that
// the event log has exactly the size Generate reserves for it (so the
// log is never regrown) and is in time order.
func TestGenerateSizesAndSortsEvents(t *testing.T) {
	for _, svc := range workload.Services() {
		opts := GenOptions{Requests: 50, Rate: 400, Threads: 3, NoiseEvents: 7, Seed: 9}
		evs, _, tp := generate(t, svc, opts)
		if want := opts.Requests*(4+visitEvents(svc.Graph)) + len(tp.Pods)*opts.NoiseEvents; len(evs) != want || cap(evs) != want {
			t.Errorf("%s: %d events (cap %d), want %d", svc.Name, len(evs), cap(evs), want)
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At {
				t.Fatalf("%s: event %d at %v before event %d at %v", svc.Name, i, evs[i].At, i-1, evs[i-1].At)
			}
		}
	}
}

// TestSortEventsIsStable holds sortEvents to sort.SliceStable on a log
// with many equal times, each event tagged with its emission index.
func TestSortEventsIsStable(t *testing.T) {
	r := sim.NewRNG(4)
	g := &generator{}
	for i := 0; i < 5000; i++ {
		g.events = append(g.events, Event{At: sim.Time(r.Intn(300)), Ctx: Context{PID: i}})
	}
	want := append([]Event(nil), g.events...)
	sort.SliceStable(want, func(a, b int) bool { return want[a].At < want[b].At })
	g.sortEvents()
	for i := range want {
		if g.events[i] != want[i] {
			t.Fatalf("event %d: sortEvents %+v, stable sort %+v", i, g.events[i], want[i])
		}
	}
}
