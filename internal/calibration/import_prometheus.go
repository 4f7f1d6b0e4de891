package calibration

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"rhythm/internal/obs"
)

// ImportPrometheus parses a Prometheus text-exposition snapshot — the
// exact format obs.Bus.WriteMetrics emits — into a MetricSet. The parser
// speaks the shared grammar of internal/obs (ParseSeriesKey,
// ParseMetricValue), so everything the sink writes parses back equal
// (pinned by the round-trip property test). It is strict in the
// internal/workload style: every malformed line becomes a FieldError
// naming its location ("lines[12]"), all defects are collected and
// joined, and a set is returned only when the artifact is clean.
//
// Accepted lines:
//
//	# TYPE <family> <counter|gauge|histogram>
//	# ... (other comments are ignored, as the format specifies)
//	<series-key> <value> [<timestamp-ms>]
//
// A trailing integer timestamp (external scrapes carry them) is accepted
// and ignored; duplicate series and malformed keys, values or TYPE
// declarations are defects. Lines longer than 1 MiB are rejected.
func ImportPrometheus(r io.Reader) (*MetricSet, error) { return parsePrometheus(r, 1<<20) }

// parsePrometheus is ImportPrometheus with lines of up to maxLine bytes.
func parsePrometheus(r io.Reader, maxLine int) (*MetricSet, error) {
	set := NewMetricSet()
	var defects []error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	n := -1
	for sc.Scan() {
		n++
		line := strings.TrimRight(sc.Text(), " \t")
		field := fmt.Sprintf("lines[%d]", n)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimLeft(rest, " ")
			if !strings.HasPrefix(rest, "TYPE ") {
				continue // HELP and free comments are ignored
			}
			parts := strings.Fields(rest)
			if len(parts) != 3 {
				defects = append(defects, FieldError{field,
					fmt.Sprintf("malformed TYPE line %q", line)})
				continue
			}
			typ := parts[2]
			switch typ {
			case "counter", "gauge", "histogram":
			case "summary", "untyped":
				// Foreign but well-formed types pass through so external
				// snapshots load; their series compare as plain scalars.
			default:
				defects = append(defects, FieldError{field,
					fmt.Sprintf("unknown metric type %q", typ)})
				continue
			}
			if !set.setType(parts[1], typ) {
				defects = append(defects, FieldError{field,
					fmt.Sprintf("family %s re-declared as %s", parts[1], typ)})
			}
			continue
		}
		key, value, ok := splitSample(line)
		if !ok {
			defects = append(defects, FieldError{field,
				fmt.Sprintf("malformed sample line %q", line)})
			continue
		}
		name, labels, err := obs.ParseSeriesKey(key)
		if err != nil {
			defects = append(defects, FieldError{field,
				fmt.Sprintf("bad series key %q: %v", key, err)})
			continue
		}
		v, err := obs.ParseMetricValue(value)
		if err != nil {
			defects = append(defects, FieldError{field,
				fmt.Sprintf("bad value %q for %s", value, name)})
			continue
		}
		if !set.add(name, labels, v) {
			defects = append(defects, FieldError{field,
				fmt.Sprintf("duplicate series %s", canonicalKey(name, labels))})
		}
	}
	if err := sc.Err(); err != nil {
		defects = append(defects, FieldError{fmt.Sprintf("lines[%d]", n+1), err.Error()})
	}
	if err := joinDefects(defects); err != nil {
		return nil, err
	}
	return set, nil
}

// splitSample splits "<key> <value> [<timestamp>]" at the first space
// after the series key. Label values may contain spaces, so the key ends
// at the closing brace when one exists; the value must then be the next
// whitespace-separated token, optionally followed by one integer
// timestamp which is discarded.
func splitSample(line string) (key, value string, ok bool) {
	rest := ""
	if i := strings.LastIndexByte(line, '}'); i >= 0 {
		key, rest = line[:i+1], line[i+1:]
	} else if i := strings.IndexAny(line, " \t"); i >= 0 {
		key, rest = line[:i], line[i:]
	} else {
		return "", "", false
	}
	fields := strings.Fields(rest)
	switch len(fields) {
	case 1:
		return key, fields[0], true
	case 2: // value + timestamp; the timestamp must at least look numeric
		if _, err := obs.ParseMetricValue(fields[1]); err != nil {
			return "", "", false
		}
		return key, fields[0], true
	default:
		return "", "", false
	}
}
