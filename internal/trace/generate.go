package trace

import (
	"fmt"
	"slices"
	"time"

	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// GenOptions controls the synthetic event-log generator that stands in for
// the paper's SystemTap capture of a live service.
type GenOptions struct {
	// Requests is the number of traced requests.
	Requests int
	// Rate is the arrival rate in requests/second; arrivals are Poisson.
	Rate float64
	// Threads is the worker-thread pool size per Servpod; when the
	// concurrency at a pod exceeds it, requests share thread contexts,
	// producing the non-blocking interleavings of Fig. 5.
	Threads int
	// Persistent makes neighbouring Servpods reuse one TCP connection:
	// all requests between a pod pair share the same message identifier
	// (§3.3's persistent-connection ambiguity).
	Persistent bool
	// NoiseEvents is the number of unrelated-process events injected per
	// Servpod host (OS daemons, other tenants) that the tracer must
	// filter out via the context identifier.
	NoiseEvents int
	// Seed drives all randomness.
	Seed uint64
}

// Truth is the generator's ground truth, used to validate the tracer: the
// real per-request sojourns that the event log encodes.
type Truth struct {
	// Sojourn[pod][i] is request i's true local processing time at pod,
	// in seconds.
	Sojourn map[string][]float64
	// E2E[i] is request i's true end-to-end latency in seconds.
	E2E []float64
}

// MeanSojourn returns the true mean sojourn at pod.
func (t *Truth) MeanSojourn(pod string) float64 { return sim.Mean(t.Sojourn[pod]) }

// Topology assigns network identities to the service's Servpods.
type Topology struct {
	Service *workload.Service
	Pods    []PodAddr
	// hostOf and portOf index pods by component name.
	hostOf map[string]string
	portOf map[string]int
}

// NewTopology assigns each component of the service its own host
// 10.0.0.(i+1) and listening port 8000+i — one Servpod per machine, the
// default placement.
func NewTopology(svc *workload.Service) *Topology {
	tp := &Topology{
		Service: svc,
		hostOf:  make(map[string]string),
		portOf:  make(map[string]int),
	}
	for i, c := range svc.Components {
		host := fmt.Sprintf("10.0.0.%d", i+1)
		tp.hostOf[c.Name] = host
		tp.portOf[c.Name] = 8000 + i
		tp.Pods = append(tp.Pods, PodAddr{Name: c.Name, HostIP: host, Programs: []string{c.Name}})
	}
	return tp
}

// clientIP is the load generator's address.
const clientIP = "10.0.0.100"

// netDelay is the one-way network latency between machines.
const netDelay = 100 * time.Microsecond

// fwdFraction is the share of a pod's local processing spent before
// forwarding downstream; the rest happens on the reply path.
const fwdFraction = 0.65

type generator struct {
	tp       *Topology
	opts     GenOptions
	rng      *sim.RNG
	sojourns map[string]queueing.Sojourn
	events   []Event
	truth    *Truth
	msgSeq   int
}

// Generate produces the event log of opts.Requests requests against the
// topology's service, with per-component local processing drawn from the
// supplied sojourn distributions (one per component, typically produced by
// the queueing model at the profiled load level). It returns the
// time-sorted event log and the ground truth.
func Generate(tp *Topology, sojourns map[string]queueing.Sojourn, opts GenOptions) ([]Event, *Truth, error) {
	if opts.Requests <= 0 {
		return nil, nil, fmt.Errorf("trace: Requests must be positive, got %d", opts.Requests)
	}
	if opts.Rate <= 0 {
		return nil, nil, fmt.Errorf("trace: Rate must be positive, got %g", opts.Rate)
	}
	if opts.Threads <= 0 {
		opts.Threads = 4
	}
	for _, c := range tp.Service.Components {
		if _, ok := sojourns[c.Name]; !ok {
			return nil, nil, fmt.Errorf("trace: missing sojourn distribution for component %s", c.Name)
		}
	}
	g := &generator{
		tp:       tp,
		opts:     opts,
		rng:      sim.NewRNG(opts.Seed).Fork("trace-generator"),
		sojourns: sojourns,
		truth: &Truth{
			Sojourn: make(map[string][]float64),
		},
	}
	for _, c := range tp.Service.Components {
		g.truth.Sojourn[c.Name] = make([]float64, opts.Requests)
	}
	g.events = make([]Event, 0, opts.Requests*(4+visitEvents(tp.Service.Graph))+len(tp.Pods)*max(opts.NoiseEvents, 0))

	at := sim.Time(0)
	for i := 0; i < opts.Requests; i++ {
		at = at.Add(time.Duration(g.rng.ExpFloat64() / opts.Rate * float64(time.Second)))
		g.request(i, at)
	}
	g.injectNoise()
	g.sortEvents()
	return g.events, g.truth, nil
}

// visitEvents is the number of events visit emits for the subtree at n: a
// RECV and a SEND per node, and a SEND and a RECV per call to a child. A
// request adds four more: the client's SEND and RECV, and the entry pod's
// ACCEPT and CLOSE.
func visitEvents(n *workload.Node) int {
	c := 2
	for _, ch := range n.Children {
		c += 2 + visitEvents(ch)
	}
	return c
}

// sortEvents orders the log by time, events with equal times in emission
// order: the output of a stable sort, which is unique. It sorts (time,
// index) keys and gathers the events once, rather than swapping the
// events themselves.
func (g *generator) sortEvents() {
	type key struct {
		at sim.Time
		i  int
	}
	keys := make([]key, len(g.events))
	for i, ev := range g.events {
		keys[i] = key{ev.At, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		return a.i - b.i
	})
	sorted := make([]Event, len(keys))
	for j, k := range keys {
		sorted[j] = g.events[k.i]
	}
	g.events = sorted
}

// ctxFor returns the thread context handling request req at pod.
func (g *generator) ctxFor(pod string, req int) Context {
	return Context{
		HostIP:  g.tp.hostOf[pod],
		Program: pod,
		PID:     1000,
		TID:     req % g.opts.Threads,
	}
}

// msgBetween returns the message identifier for a transfer from src to dst
// handled by thread tid. With persistent connections the identifier is
// fully determined by the pod pair (and reused by every request); otherwise
// an ephemeral source port makes it unique.
func (g *generator) msgBetween(srcHost string, srcPod, dstPod string, tid int) MsgID {
	srcPort := 40000 + tid
	size := 0
	if !g.opts.Persistent {
		g.msgSeq++
		srcPort = 40000 + g.msgSeq
		size = 64 + g.rng.Intn(4000)
	}
	return MsgID{
		SrcIP:   srcHost,
		SrcPort: srcPort,
		DstIP:   g.tp.hostOf[dstPod],
		DstPort: g.tp.portOf[dstPod],
		Size:    size,
	}
}

func (g *generator) emit(t EventType, at sim.Time, ctx Context, msg MsgID) {
	g.events = append(g.events, Event{Type: t, At: at, Ctx: ctx, Msg: msg})
}

// request emits the full event trail of one request: client SEND, the
// recursive walk of the call graph, client RECV.
func (g *generator) request(req int, at sim.Time) {
	root := g.tp.Service.Graph
	entry := root.Comp
	clientCtx := Context{HostIP: clientIP, Program: "client", PID: 1, TID: req % 64}
	reqMsg := MsgID{
		SrcIP: clientIP, SrcPort: 50000 + req,
		DstIP: g.tp.hostOf[entry], DstPort: g.tp.portOf[entry],
		Size: 128,
	}
	g.emit(Send, at, clientCtx, reqMsg)
	arrive := at.Add(netDelay)
	entryCtx := g.ctxFor(entry, req)
	g.emit(Accept, arrive, entryCtx, MsgID{})
	replyAt := g.visit(root, req, arrive, reqMsg)
	// Reply reaches the client; the request call closes at the entry pod.
	g.emit(Recv, replyAt.Add(netDelay), clientCtx, reqMsg.Reverse(256))
	g.emit(Close, replyAt.Add(netDelay/2), entryCtx, MsgID{})
	g.truth.E2E = append(g.truth.E2E, replyAt.Add(netDelay).Sub(at).Seconds())
}

// visit walks the call graph node: the pod receives the request (inMsg),
// spends its forward share of local processing, calls its children, spends
// the return share, and sends the reply. It returns the time the reply
// leaves the pod.
func (g *generator) visit(n *workload.Node, req int, arrive sim.Time, inMsg MsgID) sim.Time {
	pod := n.Comp
	ctx := g.ctxFor(pod, req)
	local := g.sojourns[pod].Sample(g.rng)
	g.truth.Sojourn[pod][req] += local
	g.emit(Recv, arrive, ctx, inMsg)

	if len(n.Children) == 0 {
		depart := arrive.Add(time.Duration(local * float64(time.Second)))
		g.emit(Send, depart, ctx, inMsg.Reverse(256))
		return depart
	}

	fwdDone := arrive.Add(time.Duration(local * fwdFraction * float64(time.Second)))
	var lastReply sim.Time
	if n.Parallel {
		// Fan-out: issue all children back-to-back, wait for the slowest.
		for ci, ch := range n.Children {
			out := g.msgBetween(g.tp.hostOf[pod], pod, ch.Comp, ctx.TID)
			sendAt := fwdDone.Add(time.Duration(ci) * time.Microsecond)
			g.emit(Send, sendAt, ctx, out)
			childReply := g.visit(ch, req, sendAt.Add(netDelay), out)
			replyArrive := childReply.Add(netDelay)
			g.emit(Recv, replyArrive, ctx, out.Reverse(256))
			if replyArrive > lastReply {
				lastReply = replyArrive
			}
		}
	} else {
		// Sequence: call children one after another.
		t := fwdDone
		for _, ch := range n.Children {
			out := g.msgBetween(g.tp.hostOf[pod], pod, ch.Comp, ctx.TID)
			g.emit(Send, t, ctx, out)
			childReply := g.visit(ch, req, t.Add(netDelay), out)
			t = childReply.Add(netDelay)
			g.emit(Recv, t, ctx, out.Reverse(256))
		}
		lastReply = t
	}
	depart := lastReply.Add(time.Duration(local * (1 - fwdFraction) * float64(time.Second)))
	g.emit(Send, depart, ctx, inMsg.Reverse(256))
	return depart
}

// injectNoise adds events from unrelated processes (OS daemons, other
// tenants) on the Servpod hosts: same hosts, different program names and
// foreign traffic, which the tracer must discard via the context filter.
func (g *generator) injectNoise() {
	if g.opts.NoiseEvents <= 0 || len(g.events) == 0 {
		return
	}
	programs := []string{"kworker", "sshd", "containerd", "node_exporter"}
	span := g.events[len(g.events)-1].At
	for _, pod := range g.tp.Pods {
		for i := 0; i < g.opts.NoiseEvents; i++ {
			ctx := Context{
				HostIP:  pod.HostIP,
				Program: programs[g.rng.Intn(len(programs))],
				PID:     2000 + g.rng.Intn(500),
				TID:     g.rng.Intn(8),
			}
			at := sim.Time(g.rng.Float64() * float64(span))
			typ := []EventType{Recv, Send, Accept, Close}[g.rng.Intn(4)]
			msg := MsgID{
				SrcIP: "172.16.0.9", SrcPort: 60000 + g.rng.Intn(1000),
				DstIP: pod.HostIP, DstPort: 22, Size: g.rng.Intn(9000),
			}
			g.emit(typ, at, ctx, msg)
		}
	}
}
