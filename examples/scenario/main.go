// Scenario: run a workload-spec file end to end through the facade.
//
// Loads the flash-crowd scenario (examples/scenarios/flash-crowd.json),
// materializes its service and multi-class arrival mix, deploys Rhythm
// on it, and compares Rhythm against Heracles under the spec's own run
// shape — then checks each client class's SLO against the post-run tail.
// The whole run is reproducible: same spec + same seed = same bytes.
//
// Run with: go run ./examples/scenario
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"rhythm"
)

func main() {
	spec, err := rhythm.LoadScenario("examples/scenarios/flash-crowd.json")
	if err != nil {
		log.Fatal(err)
	}
	svc, err := spec.BuildService()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: service %s (%d components), %d client classes\n\n",
		spec.Name, svc.Name, len(svc.Components), len(spec.Clients))

	const seed = 2020
	sys, err := rhythm.Deploy(svc, rhythm.Options{
		Profile: rhythm.ProfileOptions{
			Levels:        []float64{0.1, 0.3, 0.5, 0.65, 0.75, 0.85, 0.93},
			LevelDuration: 6 * time.Second,
		},
		Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The arrival mix composes every client class (Poisson browsers, the
	// MMPP crowd, the replayed trace) into one pattern on seeded
	// substreams; building it once and sharing it keeps the two policy
	// runs on identical offered load.
	pattern, err := spec.LoadPattern(seed)
	if err != nil {
		log.Fatal(err)
	}
	betypes, err := spec.BETypes()
	if err != nil {
		log.Fatal(err)
	}
	cfg := rhythm.RunConfig{
		Pattern:        pattern,
		BETypes:        betypes,
		Duration:       spec.Duration(),
		Warmup:         spec.Warmup(),
		Seed:           seed,
		CollectSamples: true,
	}
	cmp, err := sys.Compare(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %10s %10s\n", "metric", "Rhythm", "Heracles")
	fmt.Printf("%-22s %10.2f %10.2f\n", "worst p99 / SLA",
		cmp.Rhythm.WorstP99/sys.SLA, cmp.Heracles.WorstP99/sys.SLA)
	fmt.Printf("%-22s %10.0f %10.0f\n", "SLO violation s",
		cmp.Rhythm.ViolationSeconds, cmp.Heracles.ViolationSeconds)
	fmt.Printf("%-22s %10.3f %10.3f\n", "BE throughput",
		cmp.Rhythm.MeanBEThroughput(), cmp.Heracles.MeanBEThroughput())
	fmt.Printf("%-22s %9.1f%% %9s\n", "BE improvement",
		100*rhythm.Improvement(cmp.Rhythm.MeanBEThroughput(), cmp.Heracles.MeanBEThroughput()), "-")

	// Per-class verdicts: every class rides the same request path, so each
	// class's p99 is the shared end-to-end tail judged against its own SLO
	// (slo_ms absolute, or slo_scale x the derived SLA).
	fmt.Printf("\n%-12s %8s %12s %12s\n", "class", "share", "SLO ms", "Rhythm p99")
	p99 := tailP99(cmp.Rhythm.E2ESamples, spec.Warmup())
	for i := range spec.Clients {
		c := &spec.Clients[i]
		slo := c.SLOSeconds(sys.SLA)
		verdict := "ok"
		if p99 > slo {
			verdict = "VIOL"
		}
		fmt.Printf("%-12s %8.2f %12.1f %9.1f %s\n",
			c.Class, c.RateFraction, slo*1e3, p99*1e3, verdict)
	}
}

// tailP99 is the post-warmup end-to-end p99 over the collected samples
// (the engine emits SamplesPerTick samples per EngineTick from t=0).
func tailP99(samples []float64, warmup time.Duration) float64 {
	skip := int(warmup/rhythm.EngineTick) * rhythm.SamplesPerTick
	if skip >= len(samples) {
		skip = 0
	}
	xs := append([]float64(nil), samples[skip:]...)
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := (len(xs)*99+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}
