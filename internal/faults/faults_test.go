package faults

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rhythm/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(0).Add(d) }

func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name  string
		ev    Event
		field string
	}{
		{"unknown kind", Event{Kind: "meteor-strike"}, "Events[0].Kind"},
		{"negative at", Event{Kind: LoadSurge, At: -time.Second, Duration: time.Second, Magnitude: 1.5}, "Events[0].At"},
		{"negative duration", Event{Kind: LoadSurge, Duration: -time.Second, Magnitude: 1.5}, "Events[0].Duration"},
		{"surge zero magnitude", Event{Kind: LoadSurge, Duration: time.Second}, "Events[0].Magnitude"},
		{"surge zero duration", Event{Kind: LoadSurge, Magnitude: 1.5}, "Events[0].Duration"},
		{"storm weak magnitude", Event{Kind: InterferenceStorm, Duration: time.Second, Magnitude: 0.5}, "Events[0].Magnitude"},
		{"storm zero duration", Event{Kind: InterferenceStorm, Magnitude: 2}, "Events[0].Duration"},
		{"slowdown zero freq", Event{Kind: MachineSlowdown, Duration: time.Second}, "Events[0].FreqGHz"},
		{"slowdown zero duration", Event{Kind: MachineSlowdown, FreqGHz: 1.3}, "Events[0].Duration"},
		{"crash negative delay", Event{Kind: BECrash, RestartDelay: -time.Second}, "Events[0].RestartDelay"},
		{"drift negative mu", Event{Kind: ProfileDrift, Duration: time.Second, MuSkew: -1, SigmaSkew: 1}, "Events[0].MuSkew"},
		{"drift negative sigma", Event{Kind: ProfileDrift, Duration: time.Second, MuSkew: 1, SigmaSkew: -2}, "Events[0].SigmaSkew"},
		{"drift zero duration", Event{Kind: ProfileDrift, MuSkew: 1.2}, "Events[0].Duration"},
		{"dropout bad mode", Event{Kind: MeasurementDropout, Duration: time.Second, Mode: "shrug"}, "Events[0].Mode"},
		{"dropout zero duration", Event{Kind: MeasurementDropout, Mode: DropNaN}, "Events[0].Duration"},
		{"end past the clock", Event{Kind: LoadSurge, At: math.MaxInt64 - time.Millisecond, Duration: time.Second, Magnitude: 1.5}, "Events[0].Duration"},
		{"restart past the clock", Event{Kind: BECrash, At: math.MaxInt64 - time.Millisecond, RestartDelay: time.Second}, "Events[0].RestartDelay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schedule{Events: []Event{tc.ev}}
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.ev)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *FieldError: %v", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %s", err, tc.field)
			}
		})
	}
}

func TestValidateDefaults(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: ProfileDrift, Duration: time.Second, MuSkew: 1.5},
		{Kind: MeasurementDropout, Duration: time.Second},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case ProfileDrift:
			if ev.SigmaSkew != 1 {
				t.Fatalf("drift sigma skew not defaulted: %v", ev.SigmaSkew)
			}
		case MeasurementDropout:
			if ev.Mode != DropNaN {
				t.Fatalf("dropout mode not defaulted: %v", ev.Mode)
			}
		}
	}
}

func TestNilScheduleIsNoFaults(t *testing.T) {
	var s *Schedule
	if s.LoadMul(0) != 1 {
		t.Fatal("nil LoadMul != 1")
	}
	if s.InterferenceMul(0, "X") != 1 {
		t.Fatal("nil InterferenceMul != 1")
	}
	if s.FreqCapGHz(0, "X") != 0 {
		t.Fatal("nil FreqCapGHz != 0")
	}
	if mu, sg := s.Drift(0, "X"); mu != 1 || sg != 1 {
		t.Fatal("nil Drift != (1,1)")
	}
	if _, ok := s.Dropout(0); ok {
		t.Fatal("nil Dropout active")
	}
	if s.CrashTriggered(-1, 0, "X") || s.CrashBlocked(0, "X") {
		t.Fatal("nil crash queries fired")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatal("nil not Empty")
	}
}

func TestQueryWindows(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LoadSurge, At: 10 * time.Second, Duration: 5 * time.Second, Magnitude: 1.5},
		{Kind: LoadSurge, At: 12 * time.Second, Duration: 5 * time.Second, Magnitude: 2},
		{Kind: InterferenceStorm, Pod: "MySQL", At: 20 * time.Second, Duration: 4 * time.Second, Magnitude: 3},
		{Kind: MachineSlowdown, At: 30 * time.Second, Duration: 10 * time.Second, FreqGHz: 1.4},
		{Kind: MachineSlowdown, Pod: "Web", At: 32 * time.Second, Duration: 2 * time.Second, FreqGHz: 1.2},
		{Kind: ProfileDrift, At: 40 * time.Second, Duration: 10 * time.Second, MuSkew: 1.2, SigmaSkew: 1.1},
		{Kind: MeasurementDropout, At: 50 * time.Second, Duration: 4 * time.Second, Mode: DropStale},
		{Kind: MeasurementDropout, At: 52 * time.Second, Duration: 4 * time.Second, Mode: DropNaN},
		{Kind: BECrash, Pod: "MySQL", At: 60 * time.Second, RestartDelay: 8 * time.Second},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	if got := s.LoadMul(at(9 * time.Second)); got != 1 {
		t.Fatalf("LoadMul before surge = %v", got)
	}
	if got := s.LoadMul(at(13 * time.Second)); got != 3 {
		t.Fatalf("overlapping surges should multiply: got %v, want 3", got)
	}
	if got := s.LoadMul(at(15 * time.Second)); got != 2 {
		t.Fatalf("first surge ended: got %v, want 2", got)
	}

	if got := s.InterferenceMul(at(21*time.Second), "MySQL"); got != 3 {
		t.Fatalf("storm on target pod = %v", got)
	}
	if got := s.InterferenceMul(at(21*time.Second), "Web"); got != 1 {
		t.Fatalf("storm leaked to other pod: %v", got)
	}

	if got := s.FreqCapGHz(at(33*time.Second), "Web"); got != 1.2 {
		t.Fatalf("tightest cap should win: %v", got)
	}
	if got := s.FreqCapGHz(at(33*time.Second), "MySQL"); got != 1.4 {
		t.Fatalf("pod-wide cap: %v", got)
	}

	if mu, sg := s.Drift(at(45*time.Second), "Web"); mu != 1.2 || sg != 1.1 {
		t.Fatalf("drift = %v, %v", mu, sg)
	}

	if mode, ok := s.Dropout(at(51 * time.Second)); !ok || mode != DropStale {
		t.Fatalf("stale dropout: %v %v", mode, ok)
	}
	if mode, ok := s.Dropout(at(53 * time.Second)); !ok || mode != DropNaN {
		t.Fatalf("overlapping dropouts: NaN should win, got %v %v", mode, ok)
	}
	if _, ok := s.Dropout(at(57 * time.Second)); ok {
		t.Fatal("dropout past end still active")
	}

	if !s.CrashTriggered(at(59*time.Second), at(60*time.Second), "MySQL") {
		t.Fatal("crash not triggered in (59s, 60s]")
	}
	if s.CrashTriggered(at(60*time.Second), at(61*time.Second), "MySQL") {
		t.Fatal("crash fired twice")
	}
	if s.CrashTriggered(at(59*time.Second), at(60*time.Second), "Web") {
		t.Fatal("crash leaked to other pod")
	}
	if !s.CrashBlocked(at(65*time.Second), "MySQL") {
		t.Fatal("launches should be blocked during restart delay")
	}
	if s.CrashBlocked(at(69*time.Second), "MySQL") {
		t.Fatal("launches blocked past restart delay")
	}
}

func TestEdgesIn(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: LoadSurge, At: 10 * time.Second, Duration: 5 * time.Second, Magnitude: 1.5},
		{Kind: BECrash, At: 12 * time.Second},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	edges := s.EdgesIn(nil, at(9*time.Second), at(12*time.Second))
	if len(edges) != 2 || !edges[0].Start || !edges[1].Start {
		t.Fatalf("want 2 start edges, got %+v", edges)
	}
	edges = s.EdgesIn(nil, at(14*time.Second), at(15*time.Second))
	if len(edges) != 1 || edges[0].Start {
		t.Fatalf("want 1 end edge for the surge, got %+v", edges)
	}
	// BECrash never produces an end edge.
	for _, e := range s.EdgesIn(nil, 0, at(time.Hour)) {
		if e.Event.Kind == BECrash && !e.Start {
			t.Fatal("crash produced an end edge")
		}
	}
}

func TestPresetsDeterministic(t *testing.T) {
	for _, name := range Presets() {
		a, err := Preset(name, 2020, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Preset(name, 2020, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Fatalf("preset %q not deterministic", name)
		}
		c, err := Preset(name, 2021, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Events, c.Events) {
			t.Fatalf("preset %q ignores the seed", name)
		}
		if len(a.Events) == 0 {
			t.Fatalf("preset %q is empty", name)
		}
	}
	if _, err := Preset("nope", 1, 0); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestParseAndLoad(t *testing.T) {
	src := `{"name": "custom", "events": [
		{"kind": "load-surge", "at_s": 30, "dur_s": 10, "magnitude": 1.5},
		{"kind": "be-crash", "pod": "MySQL", "at_s": 60, "restart_delay_s": 8},
		{"kind": "measurement-dropout", "at_s": 80, "dur_s": 6, "mode": "stale"}
	]}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom" || len(s.Events) != 3 {
		t.Fatalf("parsed %q with %d events", s.Name, len(s.Events))
	}
	if got := s.LoadMul(at(35 * time.Second)); got != 1.5 {
		t.Fatalf("parsed surge inactive: %v", got)
	}
	if !s.CrashBlocked(at(62*time.Second), "MySQL") {
		t.Fatal("parsed crash restart delay not honored")
	}

	path := filepath.Join(t.TempDir(), "storm.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(path, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve("chaos", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve("no-such-thing", 1, 0); err == nil {
		t.Fatal("Resolve accepted garbage")
	}
	if _, err := Parse([]byte(`{"events": [{"kind": "load-surge"}]}`)); err == nil {
		t.Fatal("Parse accepted an invalid event")
	}
	// Seconds past the clock's range saturate: the event is rejected for
	// ending out of range, not for a wrapped negative start.
	_, err = Parse([]byte(`{"events": [{"kind": "load-surge", "at_s": 1e10, "dur_s": 2, "magnitude": 1.5}]}`))
	if err == nil || !strings.Contains(err.Error(), "Events[0].Duration") || strings.Contains(err.Error(), "negative") {
		t.Fatalf("out-of-range at_s: %v", err)
	}
}
