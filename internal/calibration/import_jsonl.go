package calibration

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"rhythm/internal/obs"
)

// ImportJSONL parses an obs JSONL event trace (-trace-out) and replays it
// into a private obs.Bus, driving the same instruments the engine
// registers on a live bus, so a trace and a -metrics-out snapshot of the
// same run calibrate against each other. The replay mirrors the engine's
// emit points one-to-one (DESIGN.md §13 documents the mapping):
//
//	tick events                      -> rhythm_engine_ticks_total
//	run phase=start events           -> rhythm_engine_runs_total
//	decision events                  -> rhythm_decisions_total{action=...}
//	decision slack/p99, deduplicated -> rhythm_decision_slack,
//	  per (scope, at) control tick      rhythm_window_p99_seconds,
//	                                    rhythm_offered_load
//	be events (engine lifecycle ops) -> rhythm_be_events_total{op=...}
//	fault events (both edges)        -> rhythm_fault_events_total
//	experiment phase=start events    -> rhythm_experiments_total{id=...}
//
// Fleet-level BE queue ops (dispatch/requeue/evict) and the epoch
// brackets ride the same event kinds but are not engine instruments, so
// they are deliberately not counted; cache and pool events have no
// instrument family at all. Families that never pass through events
// (per-pod sojourn histograms, scheduler health counters) cannot be
// reconstructed from a trace and simply stay absent — Compare reports
// them as informational one-sided series. The set is Snapshot of the
// replayed bus, so it is flattened exactly as the sink writes.
//
// Decoding is strict: unknown fields, missing required fields and
// non-object lines each produce a FieldError naming the event and field
// ("events[12].kind"); all defects are collected and joined.
func ImportJSONL(r io.Reader) (*MetricSet, error) {
	bus := obs.NewBus()
	seenTick := make(map[string]bool) // scope\x00at of replayed control ticks
	var defects []error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := -1
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev jsonlEvent
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			defects = append(defects, FieldError{fmt.Sprintf("events[%d]", n),
				decodeReason(err)})
			continue
		}
		if ev.Seq == nil {
			defects = append(defects, FieldError{fmt.Sprintf("events[%d].seq", n),
				"missing sequence number"})
			continue
		}
		if ev.Kind == nil {
			defects = append(defects, FieldError{fmt.Sprintf("events[%d].kind", n),
				"missing event kind"})
			continue
		}
		if !knownKinds[*ev.Kind] {
			defects = append(defects, FieldError{fmt.Sprintf("events[%d].kind", n),
				fmt.Sprintf("unknown event kind %q", *ev.Kind)})
			continue
		}
		replay(bus, &ev, seenTick)
	}
	if err := sc.Err(); err != nil {
		defects = append(defects, FieldError{fmt.Sprintf("events[%d]", n+1), err.Error()})
	}
	if err := joinDefects(defects); err != nil {
		return nil, err
	}
	return Snapshot(bus), nil
}

// jsonlEvent is the strict flat union over every field the JSONL sink
// emits (one struct; DisallowUnknownFields catches drift between the sink
// and this decoder). Pointer fields distinguish absent from zero and let
// JSON null (the sink's NaN/Inf spelling) decode to nil.
type jsonlEvent struct {
	Seq       *uint64  `json:"seq"`
	Kind      *string  `json:"kind"`
	At        *float64 `json:"at"`
	Scope     string   `json:"scope"`
	Pod       string   `json:"pod"`
	Action    string   `json:"action"`
	Load      *float64 `json:"load"`
	Slack     *float64 `json:"slack"`
	P99       *float64 `json:"p99"`
	Reason    string   `json:"reason"`
	Dur       *float64 `json:"dur"`
	QPS       *float64 `json:"qps"`
	Samples   *int     `json:"samples"`
	ID        string   `json:"id"`
	Op        string   `json:"op"`
	Cores     *int     `json:"cores"`
	Ways      *int     `json:"ways"`
	Cache     string   `json:"cache"`
	Result    string   `json:"result"`
	Key       string   `json:"key"`
	Items     *int     `json:"items"`
	Workers   *int     `json:"workers"`
	Phase     string   `json:"phase"`
	Config    string   `json:"config"`
	Fault     string   `json:"fault"`
	Magnitude *float64 `json:"magnitude"`
	Detail    string   `json:"detail"`
}

var knownKinds = map[string]bool{
	"run": true, "tick": true, "decision": true, "be": true,
	"cache": true, "pool": true, "experiment": true, "fault": true,
}

// engineBEOps are the BE lifecycle transitions the engine both emits as
// events and counts under rhythm_be_events_total (engine.beOps); the
// fleet layer's queue-perspective ops (dispatch/requeue/evict) share the
// event kind but have no instrument.
var engineBEOps = map[string]bool{
	"launch": true, "kill": true, "suspend": true, "resume": true,
	"grow": true, "cut": true, "crash": true,
}

// decodeReason strips the encoding/json prefix noise down to the reason.
func decodeReason(err error) string {
	return strings.TrimPrefix(err.Error(), "json: ")
}

// replay drives bus's instruments as the engine's emit point for ev did.
// seenTick holds the (scope, at) control ticks whose slack, p99 and load
// observations are already recorded.
func replay(bus *obs.Bus, ev *jsonlEvent, seenTick map[string]bool) {
	switch *ev.Kind {
	case "tick":
		bus.Counter("rhythm_engine_ticks_total").Inc()
	case "run":
		if ev.Phase == "start" {
			bus.Counter("rhythm_engine_runs_total").Inc()
		}
	case "decision":
		bus.Counter("rhythm_decisions_total", "action", ev.Action).Inc()
		// The engine observes slack, window p99 and offered load once per
		// control tick; decision events are per pod but share the tick's
		// (scope, at) and values, so the first event of each tick
		// reconstructs the observation exactly.
		at := math.NaN()
		if ev.At != nil {
			at = *ev.At
		}
		tick := ev.Scope + "\x00" + obs.FormatMetricValue(at)
		if seenTick[tick] {
			return
		}
		seenTick[tick] = true
		if ev.Slack != nil {
			bus.Histogram("rhythm_decision_slack", obs.DefBuckets).Observe(*ev.Slack)
		}
		if ev.P99 != nil {
			bus.Histogram("rhythm_window_p99_seconds", obs.LatencyBuckets).Observe(*ev.P99)
		}
		if ev.Load != nil && !math.IsNaN(*ev.Load) {
			bus.Histogram("rhythm_offered_load", obs.DefBuckets).Observe(*ev.Load)
		}
	case "be":
		if engineBEOps[ev.Op] {
			bus.Counter("rhythm_be_events_total", "op", ev.Op).Inc()
		}
	case "fault":
		bus.Counter("rhythm_fault_events_total").Inc()
	case "experiment":
		if ev.Phase == "start" {
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
