// Package interference converts the co-location state of one machine —
// the LC component's own demand plus the aggregate demand of BE jobs —
// into the latency inflation experienced by the LC component. It is the
// quantitative form of §2's characterization (Fig. 2): pressure on a shared
// resource inflates the component's mean service time in proportion to the
// component's sensitivity to that resource, superlinearly as the resource
// approaches saturation.
//
// Isolation mechanisms (§4) reduce, but do not eliminate, the pressure that
// reaches the LC workload: cpuset leaves SMT/prefetcher/power coupling, CAT
// partitions the LLC but misses still consume memory bandwidth, qdisc
// shapes traffic with some burst leakage, and memory bandwidth has no
// hardware partitioning at all on the paper's testbed.
package interference

import (
	"math"

	"rhythm/internal/cluster"
	"rhythm/internal/workload"
)

// Model holds the interference parameters. The zero value is not usable;
// call Default.
type Model struct {
	// Gamma is the superlinearity of contention: inflation grows with
	// pressure^Gamma, so light co-runners are almost free while
	// saturating ones blow up the tail (the knee shape of Fig. 2).
	Gamma float64
	// PressureCap bounds the per-resource normalized pressure so a
	// saturated resource cannot produce unbounded inflation.
	PressureCap float64
	// Leakage is the fraction of BE pressure that reaches the LC
	// workload on each resource when the §4 isolation mechanisms are
	// active. Without isolation every entry is 1.
	Leakage cluster.Vector
	// CVCap bounds the CV inflation factor.
	CVCap float64
}

// Default returns the calibrated model with isolation active.
func Default() Model {
	var leak cluster.Vector
	leak[cluster.ResCPU] = 0.20   // cpuset: SMT, prefetchers, power coupling
	leak[cluster.ResLLC] = 0.30   // CAT: partitioned, misses still interfere
	leak[cluster.ResMemBW] = 1.00 // no partitioning on this hardware (§4)
	leak[cluster.ResNetBW] = 0.30 // qdisc: burst leakage
	leak[cluster.ResMemory] = 0   // capacity is strictly partitioned
	leak[cluster.ResPower] = 1.00 // shared socket power budget
	return Model{Gamma: 1.8, PressureCap: 2, Leakage: leak, CVCap: 4}
}

// Unisolated returns the model with no isolation mechanisms, used by the
// §2 characterization (Fig. 2's static co-location pins tasks but shares
// LLC, DRAM bandwidth and network).
func Unisolated() Model {
	m := Default()
	for i := range m.Leakage {
		m.Leakage[i] = 1
	}
	return m
}

// capacities returns the machine's per-resource capacity vector.
func capacities(spec cluster.MachineSpec) cluster.Vector {
	var c cluster.Vector
	c[cluster.ResCPU] = float64(spec.Cores)
	c[cluster.ResLLC] = float64(spec.LLCWays)
	c[cluster.ResMemBW] = spec.MemBWGBs
	c[cluster.ResNetBW] = spec.NetGbps
	c[cluster.ResMemory] = spec.MemoryGB
	c[cluster.ResPower] = spec.TDPWatts
	return c
}

// Pressure returns the normalized interference pressure that the aggregate
// BE demand exerts on the LC workload on each resource: leaked BE demand
// relative to the headroom the machine has left after serving the LC's own
// demand. Values are clamped to [0, PressureCap].
func (m Model) Pressure(spec cluster.MachineSpec, lcDemand, beDemand cluster.Vector) cluster.Vector {
	caps := capacities(spec)
	var p cluster.Vector
	for r := 0; r < cluster.NumResources; r++ {
		if beDemand[r] <= 0 || m.Leakage[r] <= 0 {
			continue
		}
		head := caps[r] - lcDemand[r]
		if head < caps[r]*0.05 {
			head = caps[r] * 0.05 // LC near saturation: any BE demand is felt hard
		}
		v := m.Leakage[r] * beDemand[r] / head
		if v > m.PressureCap {
			v = m.PressureCap
		}
		p[r] = v
	}
	return p
}

// Inflation returns the mean-service inflation factor (>= 1) and the
// CV inflation factor (>= 1) that the given pressure vector imposes on the
// component, per its sensitivity vector.
func (m Model) Inflation(comp *workload.Component, press cluster.Vector) (inflate, cvInflate float64) {
	var pm PowMemo
	return m.InflationMemo(comp, press, &pm)
}

// PowMemo remembers, per resource, the last pressure InflationMemo raised
// to Gamma and the power. A caller that keeps one per machine skips the
// math.Pow of every resource whose pressure has not moved bitwise since
// the last call; Pow is pure, so the result has the same bits. The zero
// value is empty (pressures of 0 never reach Pow). One memo serves one
// Model.
type PowMemo struct {
	in, out cluster.Vector
}

// InflationMemo is Inflation with its math.Pow calls memoized in pm.
func (m Model) InflationMemo(comp *workload.Component, press cluster.Vector, pm *PowMemo) (inflate, cvInflate float64) {
	inflate = 1.0
	total := 0.0
	for r := 0; r < cluster.NumResources; r++ {
		if press[r] <= 0 {
			continue
		}
		if press[r] != pm.in[r] {
			pm.in[r], pm.out[r] = press[r], math.Pow(press[r], m.Gamma)
		}
		inflate += comp.Sens[r] * pm.out[r]
		total += press[r]
	}
	cvInflate = 1 + comp.CVSens*total
	if cvInflate > m.CVCap {
		cvInflate = m.CVCap
	}
	return inflate, cvInflate
}

// FreqInflation returns the service-time multiplier when the component's
// cores run at freqGHz instead of baseGHz: (base/freq)^FreqSens. This is
// how the DVFS rows of Fig. 2 are produced and how the frequency
// subcontroller's throttling feeds back into LC latency.
func FreqInflation(comp *workload.Component, freqGHz, baseGHz float64) float64 {
	if freqGHz <= 0 || baseGHz <= 0 || freqGHz >= baseGHz {
		return 1
	}
	return math.Pow(baseGHz/freqGHz, comp.FreqSens)
}

// PowerDraw estimates the machine's power draw in watts: idle floor plus
// the active power of LC and BE demand (ResPower entries carry watts).
func PowerDraw(spec cluster.MachineSpec, lcDemand, beDemand cluster.Vector) float64 {
	const idleFraction = 0.35 // idle draw as a fraction of TDP
	active := lcDemand[cluster.ResCPU]*2.5 + beDemand[cluster.ResPower]
	return idleFraction*spec.TDPWatts + active
}
