package trace

import (
	"fmt"
	"sort"

	"rhythm/internal/sim"
)

// PodStats aggregates what the tracer learned about one Servpod.
type PodStats struct {
	// Pairs is the number of intra-pod RECV→SEND causal pairs.
	Pairs int
	// UnmatchedSends counts SEND events with no unmatched preceding RECV
	// in their context (arises at fan-out pods, see Analyze).
	UnmatchedSends int
	// TotalSojourn is the summed (SEND - RECV) time over all pairs, in
	// seconds. Individual pairs can be mismatched under non-blocking
	// interleavings, but the total — and hence the mean per request —
	// is invariant (§3.3).
	TotalSojourn float64
	// MeanPerRequest is TotalSojourn divided by the request count.
	MeanPerRequest float64
}

// Result is the output of one tracer run over an event log.
type Result struct {
	// Requests is the number of requests identified at the entry pod.
	Requests int
	// PerPod maps Servpod name to its aggregated sojourn statistics.
	PerPod map[string]*PodStats
	// E2Es are the per-request end-to-end latencies in seconds,
	// extracted from ACCEPT/CLOSE pairs at the entry pod.
	E2Es []float64
	// Filtered counts events discarded by the context-identifier filter
	// (unrelated processes, client-side events).
	Filtered int
	// ContextEdges and MessageEdges count the causal edges recovered.
	ContextEdges int
	MessageEdges int
}

// MeanE2E returns the mean end-to-end latency in seconds.
func (r *Result) MeanE2E() float64 { return sim.Mean(r.E2Es) }

// TailE2E returns the q-quantile of the end-to-end latencies.
func (r *Result) TailE2E(q float64) float64 { return sim.Quantile(r.E2Es, q) }

// Analyze runs the §3.3 pipeline over an event log: filter by context
// identifier, pair intra-Servpod events by context relation (FIFO in order
// of occurrence, as the paper specifies), pair inter-Servpod events by
// message relation — both in BuildCPG — and extract per-pod sojourn
// statistics from the context edges plus per-request end-to-end latencies
// from the entry pod's ACCEPT/CLOSE pairs.
//
// Individual pairings can be wrong when non-blocking threads interleave
// requests or persistent TCP connections share message identifiers; the
// per-pod sojourn *sums* are invariant under those permutations, which is
// why the contribution analyzer consumes means (Equations 1-3 of the
// paper). At fan-out pods the strict FIFO discipline leaves the burst's
// extra SENDs unmatched and biases the mean; the paper sidesteps this by
// using the service's built-in tracer (jaeger) for its fan-out workload
// (§5.3.2), and this reproduction does the same.
func Analyze(events []Event, pods []PodAddr, entry string) (*Result, error) {
	if len(pods) == 0 {
		return nil, fmt.Errorf("trace: no Servpods to analyze")
	}
	entryOK := false
	for _, p := range pods {
		if p.Name == entry {
			entryOK = true
		}
	}
	if !entryOK {
		return nil, fmt.Errorf("trace: entry pod %q not among the %d Servpods", entry, len(pods))
	}

	g, podOf := buildCPG(events, pods)
	res := &Result{PerPod: make(map[string]*PodStats), Filtered: len(events) - len(g.Events)}
	for _, p := range pods {
		res.PerPod[p.Name] = &PodStats{}
	}
	stats := make([]*PodStats, len(pods))
	for i, p := range pods {
		stats[i] = res.PerPod[p.Name]
	}

	// One pass over the events: every SEND starts out unmatched, and the
	// entry pod's ACCEPT/CLOSE pairs (FIFO per context) give the
	// end-to-end latencies.
	acceptQ := make(map[Context][]sim.Time)
	for i := range g.Events {
		e := &g.Events[i]
		switch {
		case e.Type == Send:
			stats[podOf[i]].UnmatchedSends++
		case pods[podOf[i]].Name != entry:
		case e.Type == Accept:
			acceptQ[e.Ctx] = append(acceptQ[e.Ctx], e.At)
			res.Requests++
		case e.Type == Close:
			if q := acceptQ[e.Ctx]; len(q) > 0 {
				res.E2Es = append(res.E2Es, e.At.Sub(q[0]).Seconds())
				acceptQ[e.Ctx] = q[1:]
			}
		}
	}
	// Context edges come in SEND order, so each pod's sojourn sum adds its
	// pairs in order of occurrence.
	for _, edge := range g.Edges {
		if edge.Kind == MessageEdge {
			res.MessageEdges++
			continue
		}
		res.ContextEdges++
		st := stats[podOf[edge.To]]
		st.Pairs++
		st.UnmatchedSends--
		st.TotalSojourn += g.Events[edge.To].At.Sub(g.Events[edge.From].At).Seconds()
	}

	if res.Requests == 0 {
		return nil, fmt.Errorf("trace: no requests found (no ACCEPT events at entry pod %q)", entry)
	}
	for _, st := range res.PerPod {
		st.MeanPerRequest = st.TotalSojourn / float64(res.Requests)
	}
	return res, nil
}

// CPGEdgeKind distinguishes the two causal relations of §3.3.
type CPGEdgeKind int

// Edge kinds: context relations join a RECV to a later SEND inside one
// Servpod; message relations join a SEND to the matching RECV at the
// neighbour pod.
const (
	ContextEdge CPGEdgeKind = iota
	MessageEdge
)

// CPGEdge is a directed causal edge between event indices.
type CPGEdge struct {
	From, To int
	Kind     CPGEdgeKind
}

// CPG is the causal path graph over a filtered event log: vertices are
// events, edges the recovered causal relations.
type CPG struct {
	Events []Event
	Edges  []CPGEdge
}

// BuildCPG constructs the causal path graph over the pod events of the
// log (Fig. 4 of the paper), the pairing Analyze reads its statistics
// from.
func BuildCPG(events []Event, pods []PodAddr) *CPG {
	g, _ := buildCPG(events, pods)
	return g
}

// buildCPG is BuildCPG that also returns, per CPG event, the index of the
// first pod in pods whose context it matches.
func buildCPG(events []Event, pods []PodAddr) (*CPG, []int) {
	// Filter, then sort the survivors by time. The sort is stable
	// (SystemTap logs arrive roughly ordered but merged across CPUs) and
	// moves small references, so each pod event is copied once.
	type ref struct {
		at     sim.Time
		i, pod int
	}
	refs := make([]ref, 0, len(events))
	for i := range events {
		for j := range pods {
			if pods[j].matches(events[i].Ctx) {
				refs = append(refs, ref{events[i].At, i, j})
				break
			}
		}
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].at < refs[b].at })
	g := &CPG{Events: make([]Event, len(refs)), Edges: make([]CPGEdge, 0, len(refs))}
	podOf := make([]int, len(refs))
	for k, r := range refs {
		g.Events[k] = events[r.i]
		podOf[k] = r.pod
	}

	// Each RECV closes at most one message edge and each SEND at most one
	// context edge, so Edges never outgrows its capacity.
	recvQ := make(map[Context][]int)
	sendQ := make(map[MsgID][]int)
	for i := range g.Events {
		e := &g.Events[i]
		switch e.Type {
		case Recv:
			recvQ[e.Ctx] = append(recvQ[e.Ctx], i)
			if q := sendQ[e.Msg]; len(q) > 0 {
				g.Edges = append(g.Edges, CPGEdge{From: q[0], To: i, Kind: MessageEdge})
				sendQ[e.Msg] = q[1:]
			}
		case Send:
			if q := recvQ[e.Ctx]; len(q) > 0 {
				g.Edges = append(g.Edges, CPGEdge{From: q[0], To: i, Kind: ContextEdge})
				recvQ[e.Ctx] = q[1:]
			}
			sendQ[e.Msg] = append(sendQ[e.Msg], i)
		}
	}
	return g, podOf
}

// Acyclic reports whether the CPG has no directed cycles. Causal edges
// always point forward in time, so a correctly built CPG is acyclic; this
// is the invariant the property tests exercise.
func (g *CPG) Acyclic() bool {
	adj := make(map[int][]int, len(g.Events))
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(g.Events))
	var visit func(int) bool
	visit = func(u int) bool {
		color[u] = gray
		for _, v := range adj[u] {
			switch color[v] {
			case gray:
				return false
			case white:
				if !visit(v) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	for i := range g.Events {
		if color[i] == white && !visit(i) {
			return false
		}
	}
	return true
}
