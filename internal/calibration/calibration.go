// Package calibration closes the observability loop (ROADMAP item 4): it
// reads the artifacts the repo itself exports — Prometheus text-format
// metric snapshots (-metrics-out) and obs JSONL event traces (-trace-out)
// — back into typed metric series, compares a fresh prediction run against
// them under per-metric tolerances, and reports a pass/fail calibration
// scorecard. An auto-fit pass bisection-tunes workload distribution
// parameters (service-time mu/sigma, arrival rate) until the predicted
// tail lands within tolerance of the observed one, turning the simulator
// into a predictive twin that is checkable against any deployment that
// exports the same metric families.
//
// The package deliberately shares its text grammar with the exporter:
// series keys, label escaping and float rendering all go through
// internal/obs's promtext helpers, and a live bus (Snapshot) or a replayed
// trace (ImportJSONL) is read through the text obs.WriteMetrics writes, so
// the sink is the one flattener — the round-trip property test pins the
// parsed series against the instruments over generated instrument sets.
//
// Decode style follows internal/workload: strict field validation with
// JSON-path FieldErrors ("events[12].kind", "lines[3]"), every defect
// collected and joined rather than failing on the first.
package calibration

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"rhythm/internal/obs"
)

// FieldError names one defective location in an imported artifact, in the
// style of workload.FieldError: Field is the path to the defect
// ("lines[12]", "events[3].slack"), Reason says what is wrong with it.
type FieldError struct {
	Field  string
	Reason string
}

// Error renders "calibration: <field>: <reason>".
func (e FieldError) Error() string { return "calibration: " + e.Field + ": " + e.Reason }

// joinDefects joins collected FieldErrors into one error (nil when none).
func joinDefects(defects []error) error {
	if len(defects) == 0 {
		return nil
	}
	return errors.Join(defects...)
}

// MetricSet is a collection of metric series flattened to scalar samples:
// one value per series key, exactly the data lines of a Prometheus text
// snapshot (histograms contribute their _bucket/_sum/_count component
// series). Keys are canonicalized — labels sorted by name — so the same
// series matches across sources regardless of label order. The zero value
// is not usable; build one with NewMetricSet, Snapshot or the importers.
type MetricSet struct {
	values map[string]float64
	types  map[string]string   // family name -> counter | gauge | histogram
	byName map[string][]series // series name -> its series, sorted by key while !stale
	keys   []string            // sorted cache, rebuilt when stale
	stale  bool
}

// series is one stored series key with its labels as the key renders
// them (sorted), kept from when the sample was added so that readers
// never parse a key back.
type series struct {
	key    string
	labels []string
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet {
	return &MetricSet{
		values: make(map[string]float64),
		types:  make(map[string]string),
		byName: make(map[string][]series),
	}
}

// canonicalKey renders a series key with label pairs sorted by name (then
// value), through the shared exposition grammar.
func canonicalKey(name string, labels []string) string {
	key, _ := canonical(name, labels)
	return key
}

// canonical is canonicalKey that also returns the sorted label pairs it
// rendered.
func canonical(name string, labels []string) (string, []string) {
	if len(labels) == 0 {
		return name, nil
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].k != pairs[j].k {
			return pairs[i].k < pairs[j].k
		}
		return pairs[i].v < pairs[j].v
	})
	flat := make([]string, 0, len(pairs)*2)
	for _, p := range pairs {
		flat = append(flat, p.k, p.v)
	}
	return obs.SeriesKey(name, flat), flat
}

// add records one scalar sample under the canonical form of key. It
// reports false when the series already exists (duplicate data line).
func (s *MetricSet) add(name string, labels []string, v float64) bool {
	key, sorted := canonical(name, labels)
	if _, dup := s.values[key]; dup {
		return false
	}
	s.values[key] = v
	s.byName[name] = append(s.byName[name], series{key, sorted})
	s.stale = true
	return true
}

// setType records a family's instrument type; it reports false on a
// conflicting re-declaration.
func (s *MetricSet) setType(family, typ string) bool {
	if prev, ok := s.types[family]; ok {
		return prev == typ
	}
	s.types[family] = typ
	return true
}

// Len returns the number of scalar series in the set.
func (s *MetricSet) Len() int { return len(s.values) }

// Keys returns every series key, sorted.
func (s *MetricSet) Keys() []string {
	if s.stale || s.keys == nil {
		s.keys = make([]string, 0, len(s.values))
		for k := range s.values {
			s.keys = append(s.keys, k)
		}
		sort.Strings(s.keys)
		for _, ss := range s.byName {
			sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		}
		s.stale = false
	}
	return s.keys
}

// seriesNamed returns the series of one name, sorted by key.
func (s *MetricSet) seriesNamed(name string) []series {
	s.Keys()
	return s.byName[name]
}

// Value returns the sample stored under the series key (canonical label
// order), and whether it exists.
func (s *MetricSet) Value(key string) (float64, bool) {
	v, ok := s.values[key]
	return v, ok
}

// Type returns the recorded instrument type of a metric family ("" when
// unknown).
func (s *MetricSet) Type(family string) string { return s.types[family] }

// Families returns the family names with a recorded type, sorted.
func (s *MetricSet) Families() []string {
	out := make([]string, 0, len(s.types))
	for f := range s.types {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// LabelValues returns the sorted distinct values of one label across a
// family's series (e.g. the experiment ids under
// rhythm_experiments_total{id="..."}).
func (s *MetricSet) LabelValues(family, label string) []string {
	seen := make(map[string]bool)
	for _, sr := range s.seriesNamed(family) {
		for i := 0; i+1 < len(sr.labels); i += 2 {
			if sr.labels[i] == label {
				seen[sr.labels[i+1]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// HistogramSeries is one reconstructed histogram series: finite bucket
// bounds with cumulative counts, the +Inf total, sum and count.
type HistogramSeries struct {
	Bounds     []float64 // finite upper bounds, ascending
	Cumulative []uint64  // one per bound, plus the +Inf bucket last
	Sum        float64
	Count      uint64
}

// Quantile estimates the q-quantile by linear interpolation within the
// containing bucket, the same estimate Prometheus's histogram_quantile
// uses. Observations beyond the last finite bound saturate to it.
func (h *HistogramSeries) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return math.NaN()
	}
	target := q * float64(h.Count)
	prevCum, prevBound := 0.0, 0.0
	if h.Bounds[0] <= 0 {
		// Buckets can span negatives (slack fractions): start the first
		// bucket one inter-bound step below its upper bound.
		step := 1.0
		if len(h.Bounds) > 1 {
			step = h.Bounds[1] - h.Bounds[0]
		}
		prevBound = h.Bounds[0] - step
	}
	for i, bound := range h.Bounds {
		cum := float64(h.Cumulative[i])
		if cum >= target {
			if cum == prevCum {
				return bound
			}
			return prevBound + (bound-prevBound)*(target-prevCum)/(cum-prevCum)
		}
		prevCum, prevBound = cum, bound
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Mean returns Sum/Count (NaN when empty).
func (h *HistogramSeries) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Histogram reconstructs one histogram series of a family from the set's
// flattened _bucket/_sum/_count samples. labels select the series within
// the family (none for unlabeled histograms). It returns an error when
// the family is not a histogram or its component series are incomplete
// or inconsistent (non-cumulative buckets, count mismatch).
func (s *MetricSet) Histogram(family string, labels ...string) (*HistogramSeries, error) {
	if t := s.types[family]; t != "histogram" {
		return nil, fmt.Errorf("calibration: %s: not a histogram family (type %q)", family, t)
	}
	want := canonicalKey("", labels) // "{...}" suffix shared by the series' keys
	type bucket struct {
		bound float64
		cum   uint64
	}
	var buckets []bucket
	for _, sr := range s.seriesNamed(family + "_bucket") {
		var le string
		kl := sr.labels
		rest := make([]string, 0, len(kl))
		for i := 0; i+1 < len(kl); i += 2 {
			if kl[i] == "le" {
				le = kl[i+1]
				continue
			}
			rest = append(rest, kl[i], kl[i+1])
		}
		if canonicalKey("", rest) != want {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = obs.ParseMetricValue(le); err != nil {
				return nil, fmt.Errorf("calibration: %s: bad le value %q", sr.key, le)
			}
		}
		buckets = append(buckets, bucket{bound, uint64(s.values[sr.key])})
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("calibration: %s%s: no bucket series", family, want)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].bound < buckets[j].bound })
	h := &HistogramSeries{}
	prev := uint64(0)
	for _, b := range buckets {
		if b.cum < prev {
			return nil, fmt.Errorf("calibration: %s%s: non-cumulative buckets", family, want)
		}
		prev = b.cum
		if math.IsInf(b.bound, 1) {
			continue
		}
		h.Bounds = append(h.Bounds, b.bound)
		h.Cumulative = append(h.Cumulative, b.cum)
	}
	if !math.IsInf(buckets[len(buckets)-1].bound, 1) {
		return nil, fmt.Errorf("calibration: %s%s: missing +Inf bucket", family, want)
	}
	h.Cumulative = append(h.Cumulative, prev)
	if v, ok := s.values[canonicalKey(family+"_sum", labels)]; ok {
		h.Sum = v
	}
	if v, ok := s.values[canonicalKey(family+"_count", labels)]; ok {
		h.Count = uint64(v)
	} else {
		h.Count = prev
	}
	if h.Count != prev {
		return nil, fmt.Errorf("calibration: %s%s: _count %d does not match +Inf bucket %d",
			family, want, h.Count, prev)
	}
	return h, nil
}

// Snapshot reads a live bus's instruments into a MetricSet — the
// "predicted" side of a calibration run — by parsing the text the
// Prometheus sink writes, so Snapshot(bus) equals
// ImportPrometheus(WriteMetrics(bus)) by construction and obs.WriteMetrics
// is the one place an instrument becomes series.
func Snapshot(bus *obs.Bus) *MetricSet {
	var buf bytes.Buffer
	bus.WriteMetrics(&buf) // a bytes.Buffer write cannot fail
	// The sink's longest line is shorter than its whole text.
	set, err := parsePrometheus(&buf, buf.Len()+1)
	if err != nil {
		panic("calibration: invariant breach: the metrics sink wrote text its parser rejects: " + err.Error())
	}
	return set
}

// familyOfKey strips the label set, returning the series' family-ish name
// (histogram component suffixes included).
func familyOfKey(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}
