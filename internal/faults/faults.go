// Package faults is the deterministic fault-injection subsystem: a seeded
// Schedule of typed fault events that the engine consults every tick. The
// six fault kinds cover the anomaly classes co-located fleets actually see
// (load spikes, interference storms, partial machine failures, stale
// profiles, broken measurement pipelines) so the controller's graceful
// degradation can be proven rather than assumed.
//
// # Determinism contract
//
// A Schedule is built once — from a preset generator seeded with its own
// sim.SubSeed-forked substream, or parsed from a file — and is immutable
// and purely read afterwards. Query methods never draw randomness and
// never mutate state, so consulting a Schedule from the engine hot path
// cannot perturb the workload RNG streams: the same seed plus the same
// schedule yields byte-identical runs at any worker count, and a nil
// Schedule leaves the engine bit-frozen relative to a build without the
// faults subsystem at all.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rhythm/internal/sim"
)

// Kind names a fault class.
type Kind string

// The six fault kinds.
const (
	// LoadSurge multiplies the offered load pattern by Magnitude for
	// Duration (service-wide; Pod is ignored).
	LoadSurge Kind = "load-surge"
	// InterferenceStorm multiplies the interference pressure a Servpod's
	// machine sees by Magnitude for Duration.
	InterferenceStorm Kind = "interference-storm"
	// MachineSlowdown caps a machine's DVFS operating point at FreqGHz
	// for Duration; both the LC service time (via FreqInflation) and BE
	// progress slow down.
	MachineSlowdown Kind = "machine-slowdown"
	// BECrash kills every BE instance on the pod's machine at At and
	// blocks new launches for RestartDelay.
	BECrash Kind = "be-crash"
	// ProfileDrift skews the sojourn distribution away from the profiled
	// one for Duration: the lognormal mean is multiplied by MuSkew and
	// its log-space sigma by SigmaSkew.
	ProfileDrift Kind = "profile-drift"
	// MeasurementDropout breaks the latency measurement pipeline for
	// Duration: the controller sees a NaN or stale p99 (per Mode) while
	// the true tail keeps being tracked for the run statistics.
	MeasurementDropout Kind = "measurement-dropout"
)

// valid reports whether k is a known kind.
func (k Kind) valid() bool {
	switch k {
	case LoadSurge, InterferenceStorm, MachineSlowdown, BECrash, ProfileDrift, MeasurementDropout:
		return true
	}
	return false
}

// DropoutMode selects what the controller sees during a measurement
// dropout.
type DropoutMode string

// Dropout modes: NaN (the pipeline returns no number at all) or stale (it
// keeps repeating the last pre-dropout value).
const (
	DropNaN   DropoutMode = "nan"
	DropStale DropoutMode = "stale"
)

// Event is one typed fault. Which fields matter depends on Kind; Validate
// rejects events whose required fields are missing or out of range.
type Event struct {
	Kind Kind `json:"kind"`
	// Pod targets one Servpod by component name; empty targets every pod.
	// LoadSurge and MeasurementDropout are service-wide and ignore Pod.
	Pod string `json:"pod,omitempty"`
	// At is when the fault starts (virtual time from run start).
	At time.Duration `json:"at"`
	// Duration is how long the fault stays active. BECrash is
	// instantaneous and ignores it.
	Duration time.Duration `json:"duration,omitempty"`
	// Magnitude is the multiplier for LoadSurge (> 0) and
	// InterferenceStorm (>= 1).
	Magnitude float64 `json:"magnitude,omitempty"`
	// FreqGHz is the MachineSlowdown DVFS cap (> 0).
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// MuSkew and SigmaSkew are the ProfileDrift multipliers (> 0; zero
	// defaults to 1, i.e. no skew on that parameter).
	MuSkew    float64 `json:"mu_skew,omitempty"`
	SigmaSkew float64 `json:"sigma_skew,omitempty"`
	// RestartDelay blocks BE launches after a BECrash (>= 0).
	RestartDelay time.Duration `json:"restart_delay,omitempty"`
	// Mode is the MeasurementDropout behavior (default DropNaN).
	Mode DropoutMode `json:"mode,omitempty"`
}

// active reports whether the event covers virtual time t.
func (ev *Event) active(t sim.Time) bool {
	start := sim.Time(0).Add(ev.At)
	return t >= start && t < start.Add(ev.Duration)
}

// matches reports whether the event targets the named pod.
func (ev *Event) matches(pod string) bool {
	return ev.Pod == "" || ev.Pod == pod
}

// FieldError is a validation failure naming the exact field it is about,
// so callers can report (or test against) which part of a schedule is bad.
type FieldError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *FieldError) Error() string { return "faults: " + e.Field + ": " + e.Reason }

// Schedule is an immutable set of fault events plus per-kind indexes for
// the engine's per-tick queries. All query methods are nil-safe: a nil
// *Schedule behaves as "no faults".
type Schedule struct {
	// Name labels the schedule in output ("surges", "chaos", a file path).
	Name string `json:"name,omitempty"`
	// Events is the full event list. Treat it as read-only once the
	// schedule is validated; Validate sorts it into deterministic order.
	Events []Event `json:"events"`

	compiled  bool
	surges    []Event
	storms    []Event
	slowdowns []Event
	crashes   []Event
	drifts    []Event
	dropouts  []Event
}

// Validate checks every event's fields, applies per-kind defaults
// (drift skews of zero become 1, dropout mode defaults to DropNaN) and
// compiles the per-kind indexes. It returns all failures joined, each a
// *FieldError naming Events[i].<Field>. Besides each field's range, an
// event must end inside the virtual clock's range, and the multipliers of
// one kind must not overflow when every event of that kind is active at
// once, so every query answers a finite number.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	var errs []error
	bad := func(i int, field, format string, args ...any) {
		errs = append(errs, &FieldError{
			Field:  fmt.Sprintf("Events[%d].%s", i, field),
			Reason: fmt.Sprintf(format, args...),
		})
	}
	// products holds, per kind and field, the product of every event's
	// multiplier counted as at least 1: a bound on any active product.
	products := make(map[string]float64)
	multiply := func(i int, field string, v float64) {
		key := string(s.Events[i].Kind) + "." + field
		before, ok := products[key]
		if !ok {
			before = 1
		}
		products[key] = before * math.Max(1, v)
		if math.IsInf(products[key], 1) && !math.IsInf(before, 1) {
			bad(i, field, "%s multipliers overflow when all are active, got %v", s.Events[i].Kind, v)
		}
	}
	endsInRange := func(i int, field string, d time.Duration) {
		if at := s.Events[i].At; at >= 0 && d > math.MaxInt64-at {
			bad(i, field, "event ends past the virtual clock's range (%v after %v)", d, at)
		}
	}
	for i := range s.Events {
		ev := &s.Events[i]
		if !ev.Kind.valid() {
			bad(i, "Kind", "unknown fault kind %q", ev.Kind)
			continue
		}
		if ev.At < 0 {
			bad(i, "At", "negative start time %v", ev.At)
		}
		if ev.Duration < 0 {
			bad(i, "Duration", "negative duration %v", ev.Duration)
		}
		endsInRange(i, "Duration", ev.Duration)
		switch ev.Kind {
		case LoadSurge:
			if ev.Magnitude <= 0 {
				bad(i, "Magnitude", "load surge needs a positive multiplier, got %v", ev.Magnitude)
			}
			multiply(i, "Magnitude", ev.Magnitude)
			if ev.Duration == 0 {
				bad(i, "Duration", "load surge needs a positive duration")
			}
		case InterferenceStorm:
			if ev.Magnitude < 1 {
				bad(i, "Magnitude", "interference storm multiplier must be >= 1, got %v", ev.Magnitude)
			}
			multiply(i, "Magnitude", ev.Magnitude)
			if ev.Duration == 0 {
				bad(i, "Duration", "interference storm needs a positive duration")
			}
		case MachineSlowdown:
			if ev.FreqGHz <= 0 {
				bad(i, "FreqGHz", "machine slowdown needs a positive frequency cap, got %v", ev.FreqGHz)
			}
			if ev.Duration == 0 {
				bad(i, "Duration", "machine slowdown needs a positive duration")
			}
		case BECrash:
			if ev.RestartDelay < 0 {
				bad(i, "RestartDelay", "negative restart delay %v", ev.RestartDelay)
			}
			endsInRange(i, "RestartDelay", ev.RestartDelay)
		case ProfileDrift:
			if ev.MuSkew == 0 {
				ev.MuSkew = 1
			}
			if ev.SigmaSkew == 0 {
				ev.SigmaSkew = 1
			}
			if ev.MuSkew <= 0 {
				bad(i, "MuSkew", "drift mu skew must be positive, got %v", ev.MuSkew)
			}
			if ev.SigmaSkew <= 0 {
				bad(i, "SigmaSkew", "drift sigma skew must be positive, got %v", ev.SigmaSkew)
			}
			multiply(i, "MuSkew", ev.MuSkew)
			multiply(i, "SigmaSkew", ev.SigmaSkew)
			if ev.Duration == 0 {
				bad(i, "Duration", "profile drift needs a positive duration")
			}
		case MeasurementDropout:
			if ev.Mode == "" {
				ev.Mode = DropNaN
			}
			if ev.Mode != DropNaN && ev.Mode != DropStale {
				bad(i, "Mode", "unknown dropout mode %q (want %q or %q)", ev.Mode, DropNaN, DropStale)
			}
			if ev.Duration == 0 {
				bad(i, "Duration", "measurement dropout needs a positive duration")
			}
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	s.compile()
	return nil
}

// compile sorts Events deterministically and builds the per-kind slices.
func (s *Schedule) compile() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := &s.Events[i], &s.Events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Pod < b.Pod
	})
	s.surges = s.surges[:0]
	s.storms = s.storms[:0]
	s.slowdowns = s.slowdowns[:0]
	s.crashes = s.crashes[:0]
	s.drifts = s.drifts[:0]
	s.dropouts = s.dropouts[:0]
	for _, ev := range s.Events {
		switch ev.Kind {
		case LoadSurge:
			s.surges = append(s.surges, ev)
		case InterferenceStorm:
			s.storms = append(s.storms, ev)
		case MachineSlowdown:
			s.slowdowns = append(s.slowdowns, ev)
		case BECrash:
			s.crashes = append(s.crashes, ev)
		case ProfileDrift:
			s.drifts = append(s.drifts, ev)
		case MeasurementDropout:
			s.dropouts = append(s.dropouts, ev)
		}
	}
	s.compiled = true
}

// ensure panics if a query runs on an uncompiled schedule: the engine
// validates at New time, so reaching this means a caller skipped Validate.
func (s *Schedule) ensure() {
	if !s.compiled {
		if err := s.Validate(); err != nil {
			panic("faults: querying an invalid schedule: " + err.Error())
		}
	}
}

// LoadMul returns the product of the active load-surge multipliers at now
// (1 when none are active, or when s is nil).
func (s *Schedule) LoadMul(now sim.Time) float64 {
	if s == nil {
		return 1
	}
	s.ensure()
	mul := 1.0
	for i := range s.surges {
		if s.surges[i].active(now) {
			mul *= s.surges[i].Magnitude
		}
	}
	return mul
}

// InterferenceMul returns the product of the active interference-storm
// multipliers targeting pod at now (1 when none).
func (s *Schedule) InterferenceMul(now sim.Time, pod string) float64 {
	if s == nil {
		return 1
	}
	s.ensure()
	mul := 1.0
	for i := range s.storms {
		if ev := &s.storms[i]; ev.active(now) && ev.matches(pod) {
			mul *= ev.Magnitude
		}
	}
	return mul
}

// FreqCapGHz returns the tightest active machine-slowdown frequency cap
// targeting pod at now, or 0 when no slowdown is active.
func (s *Schedule) FreqCapGHz(now sim.Time, pod string) float64 {
	if s == nil {
		return 0
	}
	s.ensure()
	tightest := 0.0
	for i := range s.slowdowns {
		if ev := &s.slowdowns[i]; ev.active(now) && ev.matches(pod) {
			if tightest == 0 || ev.FreqGHz < tightest {
				tightest = ev.FreqGHz
			}
		}
	}
	return tightest
}

// Drift returns the combined profile-drift skews targeting pod at now
// (1, 1 when none).
func (s *Schedule) Drift(now sim.Time, pod string) (muSkew, sigmaSkew float64) {
	if s == nil {
		return 1, 1
	}
	s.ensure()
	muSkew, sigmaSkew = 1, 1
	for i := range s.drifts {
		if ev := &s.drifts[i]; ev.active(now) && ev.matches(pod) {
			muSkew *= ev.MuSkew
			sigmaSkew *= ev.SigmaSkew
		}
	}
	return muSkew, sigmaSkew
}

// Dropout reports whether a measurement dropout is active at now and its
// mode. When several overlap, NaN wins (the pipeline is at its most
// broken).
func (s *Schedule) Dropout(now sim.Time) (DropoutMode, bool) {
	if s == nil {
		return "", false
	}
	s.ensure()
	var mode DropoutMode
	for i := range s.dropouts {
		if ev := &s.dropouts[i]; ev.active(now) {
			if ev.Mode == DropNaN {
				return DropNaN, true
			}
			mode = ev.Mode
		}
	}
	return mode, mode != ""
}

// CrashTriggered reports whether a BE-crash event targeting pod fires in
// the half-open window (from, to]. The engine calls it once per tick with
// the previous tick time, so each crash fires exactly once.
func (s *Schedule) CrashTriggered(from, to sim.Time, pod string) bool {
	if s == nil {
		return false
	}
	s.ensure()
	for i := range s.crashes {
		ev := &s.crashes[i]
		at := sim.Time(0).Add(ev.At)
		if at > from && at <= to && ev.matches(pod) {
			return true
		}
	}
	return false
}

// CrashBlocked reports whether BE launches on pod are blocked at now by a
// crash's restart delay.
func (s *Schedule) CrashBlocked(now sim.Time, pod string) bool {
	if s == nil {
		return false
	}
	s.ensure()
	for i := range s.crashes {
		ev := &s.crashes[i]
		at := sim.Time(0).Add(ev.At)
		if now >= at && now < at.Add(ev.RestartDelay) && ev.matches(pod) {
			return true
		}
	}
	return false
}

// Edge is a fault activation or deactivation the engine reports on the
// observability bus.
type Edge struct {
	Event *Event
	// Start is true at activation, false at deactivation.
	Start bool
}

// EdgesIn appends to dst the activation/deactivation edges in the
// half-open window (from, to]: events whose start (or end) time falls in
// it. BECrash produces a single Start edge. The engine only calls this
// when a bus is installed, so untraced runs never pay for it.
func (s *Schedule) EdgesIn(dst []Edge, from, to sim.Time) []Edge {
	if s == nil {
		return dst
	}
	s.ensure()
	for i := range s.Events {
		ev := &s.Events[i]
		start := sim.Time(0).Add(ev.At)
		if start > from && start <= to {
			dst = append(dst, Edge{Event: ev, Start: true})
		}
		if ev.Kind == BECrash {
			continue
		}
		if end := start.Add(ev.Duration); end > from && end <= to {
			dst = append(dst, Edge{Event: ev, Start: false})
		}
	}
	return dst
}

// Empty reports whether the schedule carries no events (nil counts).
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }
