// Command rhythm-trace demonstrates the §3.3 request tracer in isolation:
// it generates the kernel-event log of a traced LC service (ACCEPT / RECV /
// SEND / CLOSE events with context and message identifiers, plus noise from
// unrelated processes), reconstructs the causal path graph, and prints the
// recovered per-Servpod sojourn statistics against the ground truth.
//
// Usage:
//
//	rhythm-trace [-service E-commerce] [-requests 500] [-load 0.5]
//	             [-threads 2] [-rate 800] [-persistent] [-seed 2020]
//
// -seed shares the fleet-wide default (2020) and validation path with the
// other rhythm binaries via internal/cliflags.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"rhythm/internal/cliflags"
	"rhythm/internal/queueing"
	"rhythm/internal/trace"
	"rhythm/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with injectable argv and streams so flag handling is
// table-testable: usage errors (unknown flags, out-of-range numeric
// values) exit 2, runtime failures exit 1.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rhythm-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	service := fs.String("service", "E-commerce", "LC service to trace")
	requests := fs.Int("requests", 500, "requests to trace")
	load := fs.Float64("load", 0.5, "load fraction during tracing")
	threads := fs.Int("threads", 2, "worker threads per Servpod (fewer => more interleaving)")
	rate := fs.Float64("rate", 800, "request arrival rate (req/s)")
	persistent := fs.Bool("persistent", true, "use persistent TCP connections between Servpods")
	noise := fs.Int("noise", 200, "unrelated-process noise events per host")
	var common cliflags.Common
	common.RegisterSeed(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if err := validate(*requests, *load, *threads, *rate, *noise); err != nil {
		fmt.Fprintln(stderr, "rhythm-trace:", err)
		return 2
	}
	if err := run(stdout, *service, *requests, *load, *threads, *rate, *persistent, *noise, common.Seed); err != nil {
		fmt.Fprintln(stderr, "rhythm-trace:", err)
		return 1
	}
	return 0
}

// validate rejects numeric flag values the tracer cannot honour before any
// work starts; trace.Generate would otherwise replace some of them with
// defaults and fail on others only after setup.
func validate(requests int, load float64, threads int, rate float64, noise int) error {
	finitePositive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	switch {
	case requests < 1:
		return fmt.Errorf("-requests must be at least 1, got %d", requests)
	case !finitePositive(load):
		return fmt.Errorf("-load must be positive and finite, got %v", load)
	case threads < 1:
		return fmt.Errorf("-threads must be at least 1, got %d", threads)
	case !finitePositive(rate):
		return fmt.Errorf("-rate must be positive and finite, got %v", rate)
	case noise < 0:
		return fmt.Errorf("-noise must not be negative, got %d", noise)
	}
	return nil
}

func run(stdout io.Writer, service string, requests int, load float64, threads int, rate float64,
	persistent bool, noise int, seed uint64) error {
	svc, err := workload.ByName(service)
	if err != nil {
		return err
	}
	topo := trace.NewTopology(svc)
	sojourns := make(map[string]queueing.Sojourn, len(svc.Components))
	for _, c := range svc.Components {
		sojourns[c.Name] = c.Station.Solo(load * svc.MaxLoadQPS)
	}

	events, truth, err := trace.Generate(topo, sojourns, trace.GenOptions{
		Requests:    requests,
		Rate:        rate,
		Threads:     threads,
		Persistent:  persistent,
		NoiseEvents: noise,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated %d events for %d requests (%d Servpods, load %.0f%%)\n",
		len(events), requests, len(svc.Components), 100*load)

	cpg := trace.BuildCPG(events, topo.Pods)
	fmt.Fprintf(stdout, "CPG: %d vertices, %d causal edges, acyclic=%v\n",
		len(cpg.Events), len(cpg.Edges), cpg.Acyclic())

	res, err := trace.Analyze(events, topo.Pods, svc.Graph.Comp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tracer: %d requests, %d noise/client events filtered, %d context edges, %d message edges\n\n",
		res.Requests, res.Filtered, res.ContextEdges, res.MessageEdges)

	fmt.Fprintf(stdout, "%-16s %14s %14s %10s\n", "servpod", "true mean", "tracer mean", "rel err")
	for _, c := range svc.Components {
		want := truth.MeanSojourn(c.Name)
		got := res.PerPod[c.Name].MeanPerRequest
		rel := 0.0
		if want > 0 {
			rel = (got - want) / want
		}
		fmt.Fprintf(stdout, "%-16s %12.3fms %12.3fms %9.2e\n", c.Name, want*1000, got*1000, rel)
	}
	fmt.Fprintf(stdout, "\nend-to-end: mean %.2fms, p99 %.2fms (%d samples)\n",
		res.MeanE2E()*1000, res.TailE2E(0.99)*1000, len(res.E2Es))
	fmt.Fprintln(stdout, "\nThe §3.3 identity: per-request pairings may mismatch under",
		"\nnon-blocking interleavings and persistent connections, but the",
		"\nper-Servpod sojourn means are exactly invariant — which is why the",
		"\ncontribution analyzer (Eq. 1-3) consumes means.")
	return nil
}
