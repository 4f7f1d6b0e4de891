package obs

// This file is the single source of truth for the Prometheus text
// exposition grammar the repo speaks: how a series key renders
// (name{k1="v1",k2="v2"}), how label values escape, and how float values
// format. Both the metrics sink (WriteMetrics) and the calibration
// importer (internal/calibration) go through these helpers, so the writer
// and the parser cannot drift: every key the sink emits parses back to
// the same (name, labels) pair, which the round-trip property test in
// internal/calibration pins. Which series an instrument becomes is
// WriteMetrics' business alone.

import (
	"fmt"
	"strconv"
	"strings"
)

// SeriesKey renders a metric name plus label pairs in Prometheus
// exposition form: name{k1="v1",k2="v2"}. Labels must come in pairs;
// values are escaped per the exposition format (backslash, double quote
// and newline). A name with no labels renders bare.
func SeriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// EscapeLabelValue escapes a label value for the exposition format:
// backslash, double quote and line feed, exactly the three escapes the
// format defines. Clean values (the common case) are returned unchanged
// without allocating.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// UnescapeLabelValue is the exact inverse of EscapeLabelValue. A
// backslash followed by anything other than \, " or n is a grammar error.
func UnescapeLabelValue(v string) (string, error) {
	if !strings.ContainsRune(v, '\\') {
		return v, nil
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(v) {
			return "", fmt.Errorf("dangling backslash")
		}
		switch v[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("unknown escape %q", `\`+string(v[i]))
		}
	}
	return sb.String(), nil
}

// ParseSeriesKey is the inverse of SeriesKey: it splits a rendered series
// key back into the metric name and the alternating label key/value
// pairs, unescaping values. It accepts exactly what SeriesKey produces
// (plus insignificant whitespace-free external variants with the same
// shape) and reports a descriptive error otherwise.
func ParseSeriesKey(key string) (name string, labels []string, err error) {
	brace := strings.IndexByte(key, '{')
	if brace < 0 {
		if key == "" {
			return "", nil, fmt.Errorf("empty metric name")
		}
		return key, nil, nil
	}
	name = key[:brace]
	if name == "" {
		return "", nil, fmt.Errorf("empty metric name")
	}
	if !strings.HasSuffix(key, "}") {
		return "", nil, fmt.Errorf("unterminated label set")
	}
	body := key[brace+1 : len(key)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq <= 0 {
			return "", nil, fmt.Errorf("malformed label pair near %q", body)
		}
		lname := body[:eq]
		rest := body[eq+2:]
		// Find the closing quote, honoring escapes.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", nil, fmt.Errorf("unterminated label value for %q", lname)
		}
		val, uerr := UnescapeLabelValue(rest[:end])
		if uerr != nil {
			return "", nil, fmt.Errorf("label %q: %v", lname, uerr)
		}
		labels = append(labels, lname, val)
		body = rest[end+1:]
		if len(body) > 0 {
			if body[0] != ',' {
				return "", nil, fmt.Errorf("expected ',' between labels, got %q", body)
			}
			body = body[1:]
			if body == "" {
				return "", nil, fmt.Errorf("trailing comma in label set")
			}
		}
	}
	return name, labels, nil
}

// FormatMetricValue renders a float in Go's shortest-roundtrip decimal
// form — the deterministic rendering the sink has always used. +Inf, -Inf
// and NaN render as the exposition format's literal spellings, which
// FormatFloat already produces.
func FormatMetricValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseMetricValue is the inverse of FormatMetricValue; it also accepts
// the exposition spellings +Inf/-Inf/NaN (strconv does).
func ParseMetricValue(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
