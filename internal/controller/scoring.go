// Scoring is the interference-scoring policy in the spirit of Alibaba's
// colocation scoring mechanism (arXiv 2407.12248): before letting BE
// work grow on a machine, score the machine by its predicted
// interference pressure and admit growth only where the score is low —
// absolutely low, or low relative to the other machines in the last
// control period. Algorithm 2 still governs the protective actions
// (StopBE/SuspendBE/CutBE); scoring only gates the expansion step.

package controller

import (
	"fmt"
	"math"
	"sort"

	"rhythm/internal/sim"
)

// defaultScoreCap is the absolute pressure below which BE growth is
// always admitted: a machine whose smoothed interference inflation is
// within 15% of the interference-free baseline is considered quiet
// regardless of how its peers are doing.
const defaultScoreCap = 1.15

// Scoring ranks Servpod machines by interference pressure and admits BE
// growth only on machines at or below the previous control period's
// median pressure (or below the absolute cap). Deterministic and
// stateful — it keeps one period of per-pod scores — so construct a
// fresh instance per run (the registry does).
//
// The ranking uses the *previous* period's scores: the engine decides
// pods one at a time within a tick, so the current period's full ranking
// doesn't exist until the tick ends. One period of staleness (100ms of
// virtual time) is well inside the pressure smoothing constant.
type Scoring struct {
	perPod   map[string]Thresholds
	uniform  Thresholds
	scoreCap float64

	lastNow sim.Time
	started bool
	cur     map[string]float64
	prev    []float64 // previous period's scores, sorted
}

// NewScoring returns the pressure-scoring policy over the deployment's
// per-Servpod thresholds; a nil map falls back to the uniform Heracles
// pair.
func NewScoring(perPod map[string]Thresholds) *Scoring {
	cp := make(map[string]Thresholds, len(perPod))
	for k, v := range perPod {
		cp[k] = v
	}
	return &Scoring{
		perPod:   cp,
		uniform:  NewHeracles().Uniform,
		scoreCap: defaultScoreCap,
		cur:      map[string]float64{},
	}
}

func (s *Scoring) thresholds(pod string) Thresholds {
	if t, ok := s.perPod[pod]; ok {
		return t
	}
	return s.uniform
}

// observe rotates the score window on a new control period and records
// the pod's pressure, returning the score growth decisions use.
func (s *Scoring) observe(in PolicyInput) float64 {
	if !s.started || in.Now != s.lastNow {
		s.started = true
		s.lastNow = in.Now
		s.prev = s.prev[:0]
		for _, v := range s.cur {
			s.prev = append(s.prev, v)
		}
		sort.Float64s(s.prev)
		s.cur = map[string]float64{}
	}
	score := in.Pressure
	if math.IsNaN(score) || score < 1 {
		// A caller with no pressure signal hands 0: treat it as the
		// interference-free baseline so the policy degrades to plain
		// Algorithm 2 rather than vetoing all growth forever.
		score = 1
	}
	s.cur[in.Pod] = score
	return score
}

// admit reports whether a machine with this score may grow BE work:
// absolutely quiet, or no louder than the median machine last period.
func (s *Scoring) admit(score float64) bool {
	if score <= s.scoreCap {
		return true
	}
	if len(s.prev) == 0 {
		return true
	}
	return score <= sim.QuantileSorted(s.prev, 0.5)
}

// Decide applies Algorithm 2, then downgrades AllowBEGrowth to
// DisallowBEGrowth on machines whose interference score doesn't clear
// the admission rank.
func (s *Scoring) Decide(in PolicyInput) (Action, string) {
	score := s.observe(in)
	act, reason := decide(s.thresholds(in.Pod), in.Load, in.Slack, in.Explain)
	if act == AllowBEGrowth && !s.admit(score) {
		act = DisallowBEGrowth
		if in.Explain {
			reason = fmt.Sprintf("pressure score %.3f over cap %.2f and above median: growth vetoed", score, s.scoreCap)
		}
	}
	return act, reason
}

// Name returns "Scoring".
func (s *Scoring) Name() string { return "Scoring" }

// SlacklimitFor reports the pod's slacklimit for CutBE step sizing.
func (s *Scoring) SlacklimitFor(pod string) float64 {
	return s.thresholds(pod).Slacklimit
}
