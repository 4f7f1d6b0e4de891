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
	"rhythm/internal/sim"
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

// Pressure returns the normalized interference pressure that the aggregate
// BE demand exerts on the LC workload on each resource of a machine with
// the given capacities (MachineSpec.Capacities): leaked BE demand relative
// to the headroom the machine has left after serving the LC's own demand.
// Values are clamped to [0, PressureCap].
func (m Model) Pressure(caps, lcDemand, beDemand cluster.Vector) cluster.Vector {
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
// component, per its sensitivity vector. It is the scalar reference the
// memoized, batched form (PowMemo, Powers, InflationMemo) reproduces.
func (m Model) Inflation(comp *workload.Component, press cluster.Vector) (inflate, cvInflate float64) {
	inflate = 1.0
	total := 0.0
	for r := 0; r < cluster.NumResources; r++ {
		if press[r] <= 0 {
			continue
		}
		inflate += comp.Sens[r] * math.Pow(press[r], m.Gamma)
		total += press[r]
	}
	return inflate, m.cvInflation(comp, total)
}

// cvInflation is the CV inflation factor at total pressure total.
func (m Model) cvInflation(comp *workload.Component, total float64) float64 {
	cvInflate := 1 + comp.CVSens*total
	if cvInflate > m.CVCap {
		cvInflate = m.CVCap
	}
	return cvInflate
}

// PowMemo remembers, per resource, the last pressure raised to Gamma and
// the power, so a caller that keeps one per machine raises only the
// pressures that moved bitwise since: Pow is pure, so a remembered power
// has the same bits. A caller batches the raising across machines and
// ticks: Moved queues each tick's moved pressures, one Powers call raises
// them all, and Settle hands each tick its powers back in the same order
// before InflationMemo reads them. The zero value is empty (pressures of
// 0 never reach Pow). One memo serves one Model.
type PowMemo struct {
	in, out cluster.Vector
}

// Moved appends to x the pressure of every resource whose power the memo
// lacks — press[r] > 0 and not bitwise its last input — in resource
// order, takes those pressures as the memo's inputs, and returns x and
// the resources as a bit mask (bit r for resource r). Their powers must
// reach the memo through Settle before InflationMemo reads it.
func (pm *PowMemo) Moved(press *cluster.Vector, x []float64) ([]float64, uint8) {
	var mask uint8
	for r := 0; r < cluster.NumResources; r++ {
		if p := press[r]; p > 0 && p != pm.in[r] {
			pm.in[r] = p
			x = append(x, p)
			mask |= 1 << r
		}
	}
	return x, mask
}

// Settle stores the powers of the resources in mask, a mask Moved
// returned, from the front of y in resource order, and returns the rest
// of y.
func (pm *PowMemo) Settle(mask uint8, y []float64) []float64 {
	for r := 0; mask != 0; r, mask = r+1, mask>>1 {
		if mask&1 != 0 {
			pm.out[r], y = y[0], y[1:]
		}
	}
	return y
}

// Powers sets dst[j] = math.Pow(press[j], m.Gamma) for every j <
// len(dst), bit for bit, as one batch (sim.PowLanes).
func (m Model) Powers(dst, press []float64) { sim.PowLanes(dst, press, m.Gamma) }

// InflationMemo is Inflation with the powers read from pm, which must
// hold the power of every pressured resource of press: Moved then
// Settle at press, or at an earlier pressure equal to it on those
// resources.
func (m Model) InflationMemo(comp *workload.Component, press *cluster.Vector, pm *PowMemo) (inflate, cvInflate float64) {
	inflate = 1.0
	total := 0.0
	for r := 0; r < cluster.NumResources; r++ {
		if press[r] <= 0 {
			continue
		}
		inflate += comp.Sens[r] * pm.out[r]
		total += press[r]
	}
	return inflate, m.cvInflation(comp, total)
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
