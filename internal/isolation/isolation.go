// Package isolation provides the simulated counterparts of the isolation
// mechanisms Rhythm drives in §4 of the paper:
//
//   - core/thread isolation via cpuset cgroups (disjoint core sets),
//   - LLC partitioning via Intel CAT (way bitmasks),
//   - network traffic isolation via Linux qdisc (rate classes), and
//   - power isolation via RAPL monitoring and per-core-set DVFS.
//
// Each actuator manipulates the allocation ledger of a cluster.Machine;
// the interference model then reads the resulting state. The actuators
// enforce the same granularities as the paper's subcontrollers: cores one
// at a time, LLC in 10% (2-way) steps, frequency in 100 MHz steps, memory
// in 100 MB steps.
package isolation

import (
	"fmt"

	"rhythm/internal/cluster"
)

// Agent is the per-machine isolation agent: the actuation half of the §3.5
// controller that runs on every machine holding an LC Servpod.
type Agent struct {
	Machine *cluster.Machine
	// LCOwner is the Servpod whose SLA the agent protects.
	LCOwner cluster.Owner

	// refusal backs LaunchBE's no-headroom error, so a refused launch —
	// once per pod per control period under AllowBEGrowth on a full
	// machine — allocates nothing.
	refusal headroomError
}

// headroomError reports a BE launch refused for lack of headroom. It
// formats its message on demand, like cluster's overcommit error, from
// the free capacity recorded at the refusal.
type headroomError struct {
	machine string
	id      string
	cores   int
	ways    int
	memGB   float64
}

func (e *headroomError) Error() string {
	return fmt.Sprintf("isolation: no headroom on %s for BE %s (cores %d, ways %d, mem %.0f GB free)",
		e.machine, e.id, e.cores, e.ways, e.memGB)
}

// NewAgent returns an agent managing machine m for the named Servpod.
func NewAgent(m *cluster.Machine, servpod string) *Agent {
	return &Agent{Machine: m, LCOwner: cluster.Owner{Kind: cluster.OwnerLC, Name: servpod}}
}

// PinLC installs the LC Servpod's cpuset/CAT/memory reservation.
func (a *Agent) PinLC(cores, llcWays int, memGB, netGbps float64) error {
	return a.Machine.Grant(a.LCOwner, cluster.Alloc{
		Cores:    cores,
		LLCWays:  llcWays,
		MemoryGB: memGB,
		NetGbps:  netGbps,
		FreqGHz:  a.Machine.Spec.MaxGHz,
	})
}

// beOwner names a BE instance's allocation.
func beOwner(id string) cluster.Owner {
	return cluster.Owner{Kind: cluster.OwnerBE, Name: id}
}

// CanLaunchBE reports whether the machine has headroom for LaunchBE's
// initial slice: one free core, one LLC step and 2 GB of memory.
func (a *Agent) CanLaunchBE() bool {
	return !(a.Machine.FreeCores() < 1 || a.Machine.FreeLLCWays() < a.waysPerStep() ||
		a.Machine.FreeMemoryGB() < 2)
}

// LaunchBE grants a fresh BE instance its initial slice: one core, 10% of
// the LLC, and 2 GB of memory (§3.5.2), at the machine's nominal frequency.
// It fails when the machine lacks headroom (CanLaunchBE is false); that
// error is valid until the agent's next refusal.
func (a *Agent) LaunchBE(id string) error {
	if !a.CanLaunchBE() {
		a.refusal = headroomError{machine: a.Machine.Name, id: id,
			cores: a.Machine.FreeCores(), ways: a.Machine.FreeLLCWays(), memGB: a.Machine.FreeMemoryGB()}
		return &a.refusal
	}
	return a.Machine.Grant(beOwner(id), cluster.Alloc{
		Cores:    1,
		LLCWays:  a.waysPerStep(),
		MemoryGB: 2,
		FreqGHz:  a.Machine.Spec.MaxGHz,
	})
}

// waysPerStep is the CAT adjustment quantum: 10% of the LLC (§3.5.2),
// at least one way.
func (a *Agent) waysPerStep() int {
	w := a.Machine.Spec.LLCWays / 10
	if w < 1 {
		w = 1
	}
	return w
}

// GrowBE gives the BE instance one more core and one more LLC step if the
// machine has headroom. It reports whether it grew.
func (a *Agent) GrowBE(id string) bool {
	cur := a.Machine.Alloc(beOwner(id))
	if cur == nil {
		return false
	}
	next := *cur
	grew := false
	if a.Machine.FreeCores() >= 1 {
		next.Cores++
		grew = true
	}
	if ways := a.waysPerStep(); a.Machine.FreeLLCWays() >= ways {
		next.LLCWays += ways
		grew = true
	}
	if !grew {
		return false
	}
	if err := a.Machine.Grant(beOwner(id), next); err != nil {
		return false
	}
	return true
}

// CutBE removes one core and one LLC step from the BE instance, keeping at
// least one core so the job stays schedulable (CutBE in §3.5.2 reduces
// resources without killing). It reports whether anything was cut.
func (a *Agent) CutBE(id string) bool {
	cur := a.Machine.Alloc(beOwner(id))
	if cur == nil {
		return false
	}
	next := *cur
	cut := false
	if next.Cores > 1 {
		next.Cores--
		cut = true
	}
	if ways := a.waysPerStep(); next.LLCWays > ways {
		next.LLCWays -= ways
		cut = true
	}
	if !cut {
		return false
	}
	if err := a.Machine.Grant(beOwner(id), next); err != nil {
		return false
	}
	return true
}

// KillBE releases every resource of the BE instance (StopBE).
func (a *Agent) KillBE(id string) { a.Machine.Release(beOwner(id)) }

// AdjustBEMemory grows or shrinks the instance's memory by the §3.5.2
// 100 MB step. It reports whether the adjustment was applied.
func (a *Agent) AdjustBEMemory(id string, grow bool) bool {
	cur := a.Machine.Alloc(beOwner(id))
	if cur == nil {
		return false
	}
	const step = 0.1 // 100 MB
	next := *cur
	if grow {
		if a.Machine.FreeMemoryGB() < step {
			return false
		}
		next.MemoryGB += step
	} else {
		if next.MemoryGB-step < 0.5 { // keep a minimal resident set
			return false
		}
		next.MemoryGB -= step
	}
	return a.Machine.Grant(beOwner(id), next) == nil
}

// SetBENetwork installs the qdisc class rate for BE traffic:
// Blink - 1.2*B_LC per §3.5.2, split equally among instances.
func (a *Agent) SetBENetwork(lcGbps float64) {
	be := a.Machine.BEOwnersView()
	if len(be) == 0 {
		return
	}
	budget := a.Machine.Spec.NetGbps - 1.2*lcGbps
	if budget < 0 {
		budget = 0
	}
	per := budget / float64(len(be))
	for _, o := range be {
		cur := a.Machine.Alloc(o)
		if cur == nil {
			continue
		}
		next := *cur
		next.NetGbps = per
		// The budget formula guarantees feasibility, but an LC grant may
		// already hold reservation; fall back to zero on conflict.
		if err := a.Machine.Grant(o, next); err != nil {
			next.NetGbps = 0
			_ = a.Machine.Grant(o, next)
		}
	}
}

// StepDownBEFrequency lowers every BE instance's DVFS operating point by
// 100 MHz (§3.5.2's frequency subcontroller step), not below the spec
// minimum. It reports whether any instance changed.
func (a *Agent) StepDownBEFrequency() bool {
	const step = 0.1 // 100 MHz
	changed := false
	for _, o := range a.Machine.BEOwnersView() {
		cur := a.Machine.Alloc(o)
		if cur == nil {
			continue
		}
		f := cur.FreqGHz
		if f == 0 {
			f = a.Machine.Spec.MaxGHz
		}
		if f-step < a.Machine.Spec.MinGHz {
			continue
		}
		next := *cur
		next.FreqGHz = f - step
		if a.Machine.Grant(o, next) == nil {
			changed = true
		}
	}
	return changed
}

// RestoreBEFrequency raises every BE instance back toward nominal by one
// 100 MHz step. It reports whether any instance changed.
func (a *Agent) RestoreBEFrequency() bool {
	const step = 0.1
	changed := false
	for _, o := range a.Machine.BEOwnersView() {
		cur := a.Machine.Alloc(o)
		if cur == nil || cur.FreqGHz == 0 || cur.FreqGHz >= a.Machine.Spec.MaxGHz {
			continue
		}
		next := *cur
		next.FreqGHz = cur.FreqGHz + step
		if next.FreqGHz > a.Machine.Spec.MaxGHz {
			next.FreqGHz = a.Machine.Spec.MaxGHz
		}
		if a.Machine.Grant(o, next) == nil {
			changed = true
		}
	}
	return changed
}

// BEFrequency returns the (lowest) DVFS operating point among BE instances,
// or the nominal frequency when none run.
func (a *Agent) BEFrequency() float64 {
	f := a.Machine.Spec.MaxGHz
	for _, o := range a.Machine.BEOwnersView() {
		if cur := a.Machine.Alloc(o); cur != nil && cur.FreqGHz != 0 && cur.FreqGHz < f {
			f = cur.FreqGHz
		}
	}
	return f
}

// ParkBE releases the instance's cores and cache ways while keeping its
// memory space: the resource meaning of §3.5.2's SuspendBE ("pauses all of
// the running BE jobs, but they can still keep their memory space").
func (a *Agent) ParkBE(id string) {
	cur := a.Machine.Alloc(beOwner(id))
	if cur == nil {
		return
	}
	next := *cur
	next.Cores = 0
	next.LLCWays = 0
	next.NetGbps = 0
	_ = a.Machine.Grant(beOwner(id), next) // shrinking cannot oversubscribe
}

// UnparkBE re-grants a parked instance the minimal runnable slice (one
// core, one LLC step). It reports whether the instance can run; an
// instance that already holds cores is trivially runnable.
func (a *Agent) UnparkBE(id string) bool {
	cur := a.Machine.Alloc(beOwner(id))
	if cur == nil {
		return false
	}
	if cur.Cores > 0 {
		return true
	}
	ways := a.waysPerStep()
	if a.Machine.FreeCores() < 1 || a.Machine.FreeLLCWays() < ways {
		return false
	}
	next := *cur
	next.Cores = 1
	next.LLCWays = ways
	return a.Machine.Grant(beOwner(id), next) == nil
}
