// The name-keyed policy registry: the single place CLI flags, scenario
// specs, the tournament experiment and the facade resolve policy names
// through. It replaces the sentinel switch that used to live in
// internal/core — core.System.Run now asks the registry to construct
// anything that isn't the system's own calibrated Rhythm instance.
// See DESIGN.md §15.2.

package controller

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FactoryOpts carries the deployment-derived inputs a policy factory may
// use. Factories must tolerate zero values: Thresholds may be nil (a
// policy that requires them returns an error, like "rhythm"; most fall
// back to the uniform Heracles pair) and SLA may be 0.
type FactoryOpts struct {
	// Thresholds are the deployed system's per-Servpod control pairs
	// (§4.3's output), keyed by Servpod name.
	Thresholds map[string]Thresholds
	// SLA is the system's derived end-to-end SLA in seconds.
	SLA float64
}

// Factory constructs a fresh policy instance. The registry calls it once
// per run, so stateful policies never leak history across runs and never
// see concurrent Decide calls from different engines.
type Factory func(opts FactoryOpts) (Policy, error)

var registry = struct {
	sync.Mutex
	factories map[string]Factory
}{factories: map[string]Factory{}}

// Register adds a named policy factory. Names are the stable CLI /
// scenario-spec identifiers (lowercase, hyphenated); registering an
// empty name or a duplicate panics — both are programmer errors that
// must fail loudly at init time, not at resolution time.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("controller: Register needs a non-empty name and a factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("controller: policy %q registered twice", name))
	}
	registry.factories[name] = f
}

// New constructs a fresh instance of the named policy. Unknown names
// error with the full registered list, so CLI and spec validation
// messages can surface it verbatim.
func New(name string, opts FactoryOpts) (Policy, error) {
	registry.Lock()
	f, ok := registry.factories[name]
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("controller: unknown policy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(opts)
}

// Registered reports whether a policy name is known.
func Registered(name string) bool {
	registry.Lock()
	defer registry.Unlock()
	_, ok := registry.factories[name]
	return ok
}

// Names returns every registered policy name, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The built-in zoo. "rhythm" demands real per-Servpod thresholds — it is
// the component-distinguishable policy, and running it uniform would
// silently benchmark something else. The rest degrade gracefully to the
// uniform pair.
func init() {
	Register("rhythm", func(opts FactoryOpts) (Policy, error) {
		return NewRhythm(opts.Thresholds)
	})
	Register("heracles", func(FactoryOpts) (Policy, error) {
		return NewHeracles(), nil
	})
	Register("none", func(FactoryOpts) (Policy, error) {
		return Disabled{}, nil
	})
	Register("predictive", func(opts FactoryOpts) (Policy, error) {
		return NewPredictive(opts.Thresholds), nil
	})
	Register("scoring", func(opts FactoryOpts) (Policy, error) {
		return NewScoring(opts.Thresholds), nil
	})
	Register("rack-central", func(FactoryOpts) (Policy, error) {
		return NewRackCentral(), nil
	})
}
