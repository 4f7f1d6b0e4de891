// Canned fault storms and the JSON schedule-file format behind the CLI's
// -faults flag.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"rhythm/internal/sim"
)

// Preset names, sorted. Each is a canned storm the resilience experiment
// and the CLI's -faults flag accept.
func Presets() []string {
	names := make([]string, 0, len(presetGens))
	for name := range presetGens {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// presetGens maps preset name to its generator. Generators draw only from
// the RNG they are handed; span scales event placement.
var presetGens = map[string]func(rng *sim.RNG, span time.Duration) []Event{
	"surges": surgesPreset,
	"storm":  stormPreset,
	"chaos":  chaosPreset,
}

// DefaultSpan is the event-placement window presets assume when the
// caller passes no span (roughly one quick production run).
const DefaultSpan = 2 * time.Minute

// Preset builds one of the canned fault storms. The generator draws from
// a substream forked as SubSeed(seed, "faults/"+name) — at construction
// time only, never during a run — so fault timing is independent of every
// workload stream and of worker count. span stretches event placement
// over the expected run duration; span <= 0 uses DefaultSpan.
func Preset(name string, seed uint64, span time.Duration) (*Schedule, error) {
	gen, ok := presetGens[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown preset %q (have %v)", name, Presets())
	}
	if span <= 0 {
		span = DefaultSpan
	}
	rng := sim.NewRNG(sim.SubSeed(seed, "faults/"+name))
	s := &Schedule{Name: name, Events: gen(rng, span)}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("faults: preset %q generated an invalid schedule: %w", name, err)
	}
	return s, nil
}

// frac returns the virtual time at fraction f of span, jittered by up to
// ±jitter·span.
func frac(rng *sim.RNG, span time.Duration, f, jitter float64) time.Duration {
	j := (2*rng.Float64() - 1) * jitter
	return time.Duration((f + j) * float64(span))
}

// surgesPreset: three transient load surges of growing height — the
// Alibaba-style request spikes the loadlimit rule must absorb.
func surgesPreset(rng *sim.RNG, span time.Duration) []Event {
	var evs []Event
	for i := 0; i < 3; i++ {
		evs = append(evs, Event{
			Kind:      LoadSurge,
			At:        frac(rng, span, 0.2+0.22*float64(i), 0.03),
			Duration:  time.Duration((0.06 + 0.04*rng.Float64()) * float64(span)),
			Magnitude: 1.2 + 0.15*float64(i) + 0.1*rng.Float64(),
		})
	}
	return evs
}

// stormPreset: two interference storms plus a DVFS slowdown on one
// machine — noisy neighbors and a thermally throttled host.
func stormPreset(rng *sim.RNG, span time.Duration) []Event {
	evs := []Event{
		{
			Kind:      InterferenceStorm,
			At:        frac(rng, span, 0.25, 0.03),
			Duration:  time.Duration((0.10 + 0.05*rng.Float64()) * float64(span)),
			Magnitude: 2 + rng.Float64(),
		},
		{
			Kind:      InterferenceStorm,
			At:        frac(rng, span, 0.60, 0.03),
			Duration:  time.Duration((0.12 + 0.05*rng.Float64()) * float64(span)),
			Magnitude: 2.5 + rng.Float64(),
		},
		{
			Kind:     MachineSlowdown,
			At:       frac(rng, span, 0.45, 0.03),
			Duration: time.Duration(0.25 * float64(span)),
			FreqGHz:  1.3 + 0.2*rng.Float64(),
		},
	}
	return evs
}

// chaosPreset: partial failures — BE crashes with restart delay,
// measurement dropouts in both modes, and profile drift.
func chaosPreset(rng *sim.RNG, span time.Duration) []Event {
	evs := []Event{
		{
			Kind:         BECrash,
			At:           frac(rng, span, 0.30, 0.03),
			RestartDelay: time.Duration((0.04 + 0.03*rng.Float64()) * float64(span)),
		},
		{
			Kind:         BECrash,
			At:           frac(rng, span, 0.70, 0.03),
			RestartDelay: time.Duration((0.04 + 0.03*rng.Float64()) * float64(span)),
		},
		{
			Kind:     MeasurementDropout,
			At:       frac(rng, span, 0.40, 0.02),
			Duration: time.Duration(0.08 * float64(span)),
			Mode:     DropNaN,
		},
		{
			Kind:     MeasurementDropout,
			At:       frac(rng, span, 0.58, 0.02),
			Duration: time.Duration(0.08 * float64(span)),
			Mode:     DropStale,
		},
		{
			Kind:      ProfileDrift,
			At:        frac(rng, span, 0.45, 0.03),
			Duration:  time.Duration(0.40 * float64(span)),
			MuSkew:    1.10 + 0.10*rng.Float64(),
			SigmaSkew: 1.05 + 0.05*rng.Float64(),
		},
	}
	return evs
}

// fileEvent is the JSON schedule-file shape: durations are float seconds
// (at_s, dur_s, restart_delay_s) for hand-editability.
type fileEvent struct {
	Kind          Kind        `json:"kind"`
	Pod           string      `json:"pod,omitempty"`
	AtS           float64     `json:"at_s"`
	DurS          float64     `json:"dur_s,omitempty"`
	Magnitude     float64     `json:"magnitude,omitempty"`
	FreqGHz       float64     `json:"freq_ghz,omitempty"`
	MuSkew        float64     `json:"mu_skew,omitempty"`
	SigmaSkew     float64     `json:"sigma_skew,omitempty"`
	RestartDelayS float64     `json:"restart_delay_s,omitempty"`
	Mode          DropoutMode `json:"mode,omitempty"`
}

type fileSchedule struct {
	Name   string      `json:"name,omitempty"`
	Events []fileEvent `json:"events"`
}

// Parse decodes a JSON schedule file and validates it. The format is
//
//	{"name": "my-storm", "events": [
//	  {"kind": "load-surge", "at_s": 30, "dur_s": 10, "magnitude": 1.5},
//	  {"kind": "be-crash", "pod": "MySQL", "at_s": 60, "restart_delay_s": 8},
//	  {"kind": "measurement-dropout", "at_s": 80, "dur_s": 6, "mode": "stale"}
//	]}
//
// Decoding is strict: an unknown key (a misspelt "restart_delay" would
// otherwise leave RestartDelay at 0) and data after the schedule object
// are errors.
func Parse(data []byte) (*Schedule, error) {
	s, err := decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode is Parse without the validation, so Load can name the schedule
// before its first Validate freezes it.
func decode(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fs fileSchedule
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("faults: parsing schedule: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("faults: parsing schedule: trailing data after the schedule object")
	}
	s := &Schedule{Name: fs.Name}
	for _, fe := range fs.Events {
		s.Events = append(s.Events, Event{
			Kind:         fe.Kind,
			Pod:          fe.Pod,
			At:           secs(fe.AtS),
			Duration:     secs(fe.DurS),
			Magnitude:    fe.Magnitude,
			FreqGHz:      fe.FreqGHz,
			MuSkew:       fe.MuSkew,
			SigmaSkew:    fe.SigmaSkew,
			RestartDelay: secs(fe.RestartDelayS),
			Mode:         fe.Mode,
		})
	}
	return s, nil
}

// Load reads and parses a JSON schedule file; a schedule without a name
// is named by its path. Parse's errors already say "faults:", so Load
// prefixes only the path.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	s, err := decode(data)
	if err == nil {
		if s.Name == "" {
			s.Name = path
		}
		err = s.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve turns a -faults argument into a schedule: a preset name, or a
// path to a JSON schedule file. Presets are generated with the given seed
// and span.
func Resolve(arg string, seed uint64, span time.Duration) (*Schedule, error) {
	if _, ok := presetGens[arg]; ok {
		return Preset(arg, seed, span)
	}
	if _, err := os.Stat(arg); err != nil {
		return nil, fmt.Errorf("faults: %q is neither a preset (%v) nor a readable schedule file", arg, Presets())
	}
	return Load(arg)
}

// secs converts file seconds to a Duration, saturating at the int64 range:
// Go leaves an out-of-range float-to-integer conversion
// implementation-defined, and on amd64 a huge positive time would come out
// negative.
func secs(v float64) time.Duration {
	switch d := v * float64(time.Second); {
	case d >= math.MaxInt64:
		return math.MaxInt64
	case d <= math.MinInt64:
		return math.MinInt64
	default:
		return time.Duration(d)
	}
}
