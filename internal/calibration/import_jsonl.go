package calibration

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"rhythm/internal/obs"
)

// ImportJSONL parses an obs JSONL event trace (-trace-out) and replays it
// into a private obs.Bus, driving the same instruments the engine
// registers on a live bus, so a trace and a -metrics-out snapshot of the
// same run calibrate against each other. replay mirrors the engine's emit
// points one-to-one; DESIGN.md §13.1 tables the mapping and the families
// a trace cannot carry, which stay absent and which Compare reports as
// informational one-sided series. The set is Snapshot of the replayed
// bus, so it is flattened exactly as the sink writes.
//
// Lines decode through obs.DecodeJSONL, the sink's schema read
// backwards, so the importer and the sink cannot drift. Decoding is
// strict: a non-object line, a missing or unknown seq or kind, and a key
// the kind does not declare each produce a FieldError naming the event or
// its envelope field ("events[12].kind"); all defects are collected and
// joined.
func ImportJSONL(r io.Reader) (*MetricSet, error) {
	bus := obs.NewBus()
	ticks := make(map[string]*controlTick) // by scope
	var defects []error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := -1
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := obs.DecodeJSONL(line)
		if err != nil {
			field := fmt.Sprintf("events[%d]", n)
			de := err.(*obs.DecodeError)
			if de.Field != "" {
				field += "." + de.Field
			}
			defects = append(defects, FieldError{field, de.Reason})
			continue
		}
		replay(bus, &ev, ticks)
	}
	if err := sc.Err(); err != nil {
		defects = append(defects, FieldError{fmt.Sprintf("events[%d]", n+1), err.Error()})
	}
	if err := joinDefects(defects); err != nil {
		return nil, err
	}
	return Snapshot(bus), nil
}

// controlTick is one scope's latest engine control tick: its time and the
// pods whose decisions it has had so far.
type controlTick struct {
	at   int64
	pods []string
}

// replay drives bus's instruments as the engine's emit point for ev did.
// ticks holds each scope's latest control tick.
func replay(bus *obs.Bus, ev *obs.Event, ticks map[string]*controlTick) {
	switch ev.Kind {
	case obs.KindTick:
		bus.Counter("rhythm_engine_ticks_total").Inc()
	case obs.KindRun:
		if ev.Op == "start" {
			bus.Counter("rhythm_engine_runs_total").Inc()
		}
	case obs.KindDecision:
		bus.Counter("rhythm_decisions_total", "action", ev.Op).Inc()
		// The engine observes slack, window p99 and offered load once per
		// control tick, and emits one decision per pod with the tick's
		// (scope, at) and values. A new at starts a new tick, and so does
		// a pod repeating at the same at: engines run one after another
		// under a shared label. The first event of each tick reconstructs
		// the observation exactly.
		if t := ticks[ev.Scope]; t != nil && t.at == ev.At && !slices.Contains(t.pods, ev.Pod) {
			t.pods = append(t.pods, ev.Pod)
			return
		}
		ticks[ev.Scope] = &controlTick{ev.At, []string{ev.Pod}}
		if !math.IsNaN(ev.Slack) {
			bus.Histogram("rhythm_decision_slack", obs.DefBuckets).Observe(ev.Slack)
		}
		if !math.IsNaN(ev.P99) {
			bus.Histogram("rhythm_window_p99_seconds", obs.LatencyBuckets).Observe(ev.P99)
		}
		if !math.IsNaN(ev.Load) {
			bus.Histogram("rhythm_offered_load", obs.DefBuckets).Observe(ev.Load)
		}
	case obs.KindBE:
		if slices.Contains(obs.EngineBEOps, ev.Op) {
			bus.Counter("rhythm_be_events_total", "op", ev.Op).Inc()
		}
	case obs.KindFault:
		bus.Counter("rhythm_fault_events_total").Inc()
	case obs.KindExperiment:
		if ev.Op == "start" {
			bus.Counter("rhythm_experiments_total", "id", ev.ID).Inc()
		}
	}
}

// ImportFile reads an observed-metrics artifact, dispatching on the file
// name: .jsonl/.ndjson parse as an obs event trace, anything else as a
// Prometheus text snapshot.
func ImportFile(path string) (*MetricSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".ndjson") {
		return ImportJSONL(f)
	}
	return ImportPrometheus(f)
}
