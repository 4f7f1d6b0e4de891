package faults

import (
	"encoding/json"
	"math"
	"testing"

	"rhythm/internal/sim"
)

// fileJSON renders s in the schedule-file format Parse reads.
func fileJSON(tb testing.TB, s *Schedule) []byte {
	tb.Helper()
	fs := fileSchedule{Name: s.Name}
	for _, ev := range s.Events {
		fs.Events = append(fs.Events, fileEvent{
			Kind:          ev.Kind,
			Pod:           ev.Pod,
			AtS:           ev.At.Seconds(),
			DurS:          ev.Duration.Seconds(),
			Magnitude:     ev.Magnitude,
			FreqGHz:       ev.FreqGHz,
			MuSkew:        ev.MuSkew,
			SigmaSkew:     ev.SigmaSkew,
			RestartDelayS: ev.RestartDelay.Seconds(),
			Mode:          ev.Mode,
		})
	}
	data, err := json.Marshal(fs)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzFaultsParse holds the schedule-file decoder behind -faults to its
// contract on any input: Parse never panics, and a schedule it accepts
// answers every query the engine makes without panicking, with finite
// multipliers, at 0, at each event's start and end, and just past the
// last event.
func FuzzFaultsParse(f *testing.F) {
	for _, name := range Presets() {
		s, err := Preset(name, 2020, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fileJSON(f, s))
	}
	f.Add([]byte(`{"name": "my-storm", "events": [
	  {"kind": "load-surge", "at_s": 30, "dur_s": 10, "magnitude": 1.5},
	  {"kind": "be-crash", "pod": "MySQL", "at_s": 60, "restart_delay_s": 8},
	  {"kind": "measurement-dropout", "at_s": 80, "dur_s": 6, "mode": "stale"}
	]}`))
	// Overlapping multipliers whose product overflows, and an event whose
	// end overflows the virtual clock.
	f.Add([]byte(`{"events": [
	  {"kind": "load-surge", "at_s": 1, "dur_s": 10, "magnitude": 1e200},
	  {"kind": "load-surge", "at_s": 2, "dur_s": 10, "magnitude": 1e200},
	  {"kind": "profile-drift", "at_s": 1, "dur_s": 10, "mu_skew": 1e300, "sigma_skew": 1e300},
	  {"kind": "profile-drift", "at_s": 1, "dur_s": 10, "mu_skew": 1e300, "sigma_skew": 1e300}
	]}`))
	f.Add([]byte(`{"events": [{"kind": "interference-storm", "at_s": 9e9, "dur_s": 9e9, "magnitude": 2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		times := []sim.Time{0}
		pods := []string{"", "no-such-pod"}
		var last sim.Time
		for _, ev := range s.Events {
			start := sim.Time(0).Add(ev.At)
			end := start.Add(ev.Duration)
			times = append(times, start, end)
			last = max(last, start, end, start.Add(ev.RestartDelay))
			pods = append(pods, ev.Pod)
		}
		times = append(times, last+1)
		finite := func(query string, now sim.Time, pod string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s(%v, %q) = %v on an accepted schedule %s", query, now, pod, v, data)
			}
		}
		prev := sim.Time(-1)
		var edges []Edge
		for _, now := range times {
			finite("LoadMul", now, "", s.LoadMul(now))
			s.Dropout(now)
			for _, pod := range pods {
				finite("InterferenceMul", now, pod, s.InterferenceMul(now, pod))
				finite("FreqCapGHz", now, pod, s.FreqCapGHz(now, pod))
				mu, sigma := s.Drift(now, pod)
				finite("Drift mu", now, pod, mu)
				finite("Drift sigma", now, pod, sigma)
				s.CrashTriggered(prev, now, pod)
				s.CrashBlocked(now, pod)
			}
			edges = s.EdgesIn(edges[:0], prev, now)
			prev = now
		}
	})
}
