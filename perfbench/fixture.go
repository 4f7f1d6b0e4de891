package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"

	"rhythm/internal/controller"
	"rhythm/internal/core"
	"rhythm/internal/workload"
)

// fixtureSeed is the seed the deploy fixture and the digest pins are made
// at: the repository's default experiment seed.
const fixtureSeed = 2020

// deployment is what core.Deploy produces for one service at quick scale:
// the SLA and the per-Servpod thresholds. It is everything core.System.Run
// reads, so colocate and fleet100 build their systems from it instead of
// running the offline phase in set-up.
type deployment struct {
	Service    string                           `json:"service"`
	SLA        float64                          `json:"sla_s"`
	Thresholds map[string]controller.Thresholds `json:"thresholds"`
}

//go:embed fixture.json
var fixtureJSON []byte

//go:embed digests.json
var digestsJSON []byte

// loadFixture decodes the committed deploy fixture, one entry per Table 1
// service in catalog order.
func loadFixture() ([]deployment, error) {
	var fx []deployment
	if err := json.Unmarshal(fixtureJSON, &fx); err != nil {
		return nil, fmt.Errorf("fixture.json: %w", err)
	}
	if len(fx) != len(workload.Services()) {
		return nil, fmt.Errorf("fixture.json: %d services, want %d", len(fx), len(workload.Services()))
	}
	return fx, nil
}

// systems turns the fixture into deployed systems keyed by service name.
func systems(fx []deployment) (map[string]*core.System, error) {
	out := make(map[string]*core.System, len(fx))
	for _, d := range fx {
		svc, err := workload.ByName(d.Service)
		if err != nil {
			return nil, err
		}
		pol, err := controller.NewRhythm(d.Thresholds)
		if err != nil {
			return nil, err
		}
		out[d.Service] = &core.System{
			Service:    svc,
			Thresholds: d.Thresholds,
			Policy:     pol,
			SLA:        d.SLA,
		}
	}
	return out, nil
}

// pinnedDigests returns the committed per-workload output digests at
// fixtureSeed.
func pinnedDigests() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// writeFixture deploys every service exactly as the offline workload's ops
// do at fixtureSeed and writes the result to path.
func writeFixture(path string) error {
	var fx []deployment
	for _, svc := range workload.Services() {
		d, _, err := deploy(svc, nil)
		if err != nil {
			return err
		}
		fx = append(fx, d)
	}
	b, err := json.MarshalIndent(fx, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sameDeployment reports whether two deployments are bit-identical.
func sameDeployment(a, b deployment) bool {
	if a.Service != b.Service || math.Float64bits(a.SLA) != math.Float64bits(b.SLA) ||
		len(a.Thresholds) != len(b.Thresholds) {
		return false
	}
	for pod, ta := range a.Thresholds {
		tb, ok := b.Thresholds[pod]
		if !ok || math.Float64bits(ta.Loadlimit) != math.Float64bits(tb.Loadlimit) ||
			math.Float64bits(ta.Slacklimit) != math.Float64bits(tb.Slacklimit) {
			return false
		}
	}
	return true
}

// digest folds simulated outputs into a SHA-256, floats by their bits.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) i(vs ...int) {
	for _, v := range vs {
		d.f(float64(v))
	}
}

func (d *digest) s(v string) { d.h.Write(append([]byte(v), 0)) }

func (d *digest) deployment(dep deployment) {
	d.s(dep.Service)
	d.f(dep.SLA)
	pods := make([]string, 0, len(dep.Thresholds))
	for pod := range dep.Thresholds {
		pods = append(pods, pod)
	}
	sort.Strings(pods)
	for _, pod := range pods {
		d.s(pod)
		d.f(dep.Thresholds[pod].Loadlimit, dep.Thresholds[pod].Slacklimit)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
