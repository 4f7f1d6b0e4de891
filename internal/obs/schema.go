package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The trace-event schema: each kind's name and its JSONL fields in output
// order, declared once. JSONLSink writes a line from it, ChromeSink takes
// an event's args from it, and DecodeJSONL reads it backwards, so adding a
// field to an event kind is one entry here.
//
// Every line starts with the envelope: "seq", "kind", "at" (virtual
// seconds, absent for NoTime) and "scope" (absent when empty). The kind's
// fields follow, each spelled by the Go type of the Event field it
// carries: a string (omitted when empty), a float64 in shortest
// round-trip form (NaN and ±Inf as null), an int, or int64 virtual
// nanoseconds written as seconds.

// member names the Event field a JSONL key carries.
type member uint8

const (
	mPod member = iota
	mOp
	mID
	mReason
	mLoad
	mSlack
	mP99
	mQPS
	mN
	mM
	mDur
)

// slot returns a pointer to ev's field m: *string, *float64, *int or
// *int64.
func (ev *Event) slot(m member) any {
	return [...]any{&ev.Pod, &ev.Op, &ev.ID, &ev.Reason, &ev.Load, &ev.Slack,
		&ev.P99, &ev.QPS, &ev.N, &ev.M, &ev.Dur}[m]
}

// field is one JSONL key of a kind and the Event field it carries.
type field struct {
	key string
	of  member
}

var schema = [kindMax]struct {
	name   string
	fields []field
}{
	KindRun:        {"run", []field{{"phase", mOp}, {"config", mReason}}},
	KindTick:       {"tick", []field{{"dur", mDur}, {"load", mLoad}, {"qps", mQPS}, {"samples", mN}}},
	KindDecision:   {"decision", []field{{"pod", mPod}, {"action", mOp}, {"load", mLoad}, {"slack", mSlack}, {"p99", mP99}, {"reason", mReason}}},
	KindBE:         {"be", []field{{"pod", mPod}, {"id", mID}, {"op", mOp}, {"cores", mN}, {"ways", mM}}},
	KindCache:      {"cache", []field{{"cache", mPod}, {"result", mOp}, {"key", mID}}},
	KindPool:       {"pool", []field{{"items", mN}, {"workers", mM}}},
	KindExperiment: {"experiment", []field{{"id", mID}, {"phase", mOp}}},
	KindFault:      {"fault", []field{{"fault", mID}, {"phase", mOp}, {"pod", mPod}, {"magnitude", mLoad}, {"detail", mReason}}},
}

// EngineBEOps are the BE lifecycle transitions an engine reports as be
// events and counts under rhythm_be_events_total{op}. The fleet's queue
// transitions (dispatch, requeue, evict) share the event kind but have no
// instrument.
var EngineBEOps = []string{"launch", "kill", "suspend", "resume", "grow", "cut", "crash"}

// String names the kind as it appears in sink output.
func (k Kind) String() string {
	if k < kindMax && schema[k].name != "" {
		return schema[k].name
	}
	return "unknown"
}

// fields returns the kind's JSONL fields in output order (none for an
// unknown kind).
func (k Kind) fields() []field {
	if k < kindMax {
		return schema[k].fields
	}
	return nil
}

// appendField appends ,"key":value for ev's value of f, or nothing for an
// empty string.
func appendField(b []byte, f field, ev *Event) []byte {
	switch p := ev.slot(f.of).(type) {
	case *string:
		return appendStr(b, f.key, *p)
	case *float64:
		return appendFloat(appendKey(b, f.key), *p)
	case *int:
		return strconv.AppendInt(appendKey(b, f.key), int64(*p), 10)
	default:
		return appendFloat(appendKey(b, f.key), float64(*p.(*int64))/1e9)
	}
}

// A DecodeError is a line DecodeJSONL rejects. Field is "seq" or "kind"
// for a defect in those envelope keys, else ""; Reason then quotes any
// other key at fault (unknown, missing or badly valued).
type DecodeError struct {
	Field  string
	Reason string
}

// Error renders "obs: <field>: <reason>", or "obs: <reason>".
func (e *DecodeError) Error() string {
	if e.Field == "" {
		return "obs: " + e.Reason
	}
	return "obs: " + e.Field + ": " + e.Reason
}

// DecodeJSONL parses one line JSONLSink wrote back into its Event: "at"
// and "dur" seconds become nanoseconds again (exactly for |ns| < 2^51,
// 26 virtual days: s·1e9 is then within half a nanosecond of ns),
// null is NaN, and absent strings and "at" read as "" and NoTime. Every
// key must be the envelope's or the kind's, and the kind's numeric fields
// must be present: the sink always writes them. ±Inf, which the sink
// writes as null, decodes as NaN.
func DecodeJSONL(line []byte) (Event, error) {
	ev := Event{At: NoTime}
	var obj map[string]json.RawMessage
	var kind string
	switch err := json.Unmarshal(line, &obj); {
	case err != nil:
		return ev, &DecodeError{Reason: "not a JSON object: " + err.Error()}
	case obj["seq"] == nil:
		return ev, &DecodeError{"seq", "missing sequence number"}
	case !decodeInto(obj["seq"], &ev.Seq):
		return ev, &DecodeError{"seq", "want an unsigned integer"}
	case obj["kind"] == nil:
		return ev, &DecodeError{"kind", "missing event kind"}
	case !decodeInto(obj["kind"], &kind):
		return ev, &DecodeError{"kind", "want a string"}
	}
	ev.Kind = KindRun
	for ev.Kind < kindMax && schema[ev.Kind].name != kind {
		ev.Kind++
	}
	if ev.Kind == kindMax {
		return ev, &DecodeError{"kind", fmt.Sprintf("unknown event kind %q", kind)}
	}
	fields := ev.Kind.fields()
	var unknown []string
	for key := range obj {
		if !slices.Contains([]string{"seq", "kind", "at", "scope"}, key) &&
			!slices.ContainsFunc(fields, func(f field) bool { return f.key == key }) {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		return ev, &DecodeError{Reason: fmt.Sprintf("unknown field %q", slices.Min(unknown))}
	}
	if raw, ok := obj["at"]; ok && !decodeInto(raw, &ev.At) {
		return ev, badValue("at")
	}
	if raw, ok := obj["scope"]; ok && !decodeInto(raw, &ev.Scope) {
		return ev, badValue("scope")
	}
	for _, f := range fields {
		p := ev.slot(f.of)
		raw, ok := obj[f.key]
		_, text := p.(*string)
		switch {
		case !ok && !text:
			return ev, &DecodeError{Reason: fmt.Sprintf("missing field %q", f.key)}
		case ok && !decodeInto(raw, p):
			return ev, badValue(f.key)
		}
	}
	return ev, nil
}

func badValue(key string) error {
	return &DecodeError{Reason: fmt.Sprintf("bad value for field %q", key)}
}

// decodeInto decodes a JSON value into p as the sink spells *p: null only
// as a float's NaN, and an *int64 from seconds.
func decodeInto(raw json.RawMessage, p any) bool {
	switch p := p.(type) {
	case *float64:
		if string(raw) == "null" {
			*p = math.NaN()
			return true
		}
	case *int64:
		var s float64
		if !decodeInto(raw, &s) || math.IsNaN(s) || math.Abs(s) > 9e9 {
			return false
		}
		*p = int64(math.Round(s * 1e9)) // exact for |ns| < 2^51
		return true
	}
	return string(raw) != "null" && json.Unmarshal(raw, p) == nil
}
