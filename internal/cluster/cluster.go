// Package cluster models the physical substrate of the paper's testbed:
// machines with cores, a way-partitioned last-level cache, memory capacity,
// memory bandwidth, network bandwidth, and a power budget with DVFS
// frequency scaling. It is the state the isolation actuators
// (internal/isolation) manipulate and the interference model
// (internal/interference) reads.
//
// The defaults mirror §5.1 of the paper: four machines, each with 40 cores
// of a quad-socket Xeon E7-4820 v4 @ 2.0 GHz, 20 MB of shared L3 per socket
// (modeled as 20 CAT ways), and 64 GB of DRAM per socket.
package cluster

import "fmt"

// Resource identifies one of the shared resources the controller manages.
type Resource int

// The managed resources. Their order is stable and used for vector
// indexing across packages.
const (
	ResCPU    Resource = iota // physical cores
	ResLLC                    // last-level cache ways (Intel CAT)
	ResMemBW                  // memory bandwidth
	ResNetBW                  // network link bandwidth
	ResMemory                 // DRAM capacity
	ResPower                  // socket power (RAPL)
	numResources
)

// NumResources is the number of managed resource dimensions.
const NumResources = int(numResources)

// String returns the conventional short name of the resource.
func (r Resource) String() string {
	switch r {
	case ResCPU:
		return "cpu"
	case ResLLC:
		return "llc"
	case ResMemBW:
		return "membw"
	case ResNetBW:
		return "netbw"
	case ResMemory:
		return "memory"
	case ResPower:
		return "power"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Vector is a per-resource quantity (capacities, demands, pressures).
type Vector [NumResources]float64

// Add returns v + o element-wise.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// MachineSpec describes the capacities of one physical machine.
type MachineSpec struct {
	Cores    int     // physical cores
	LLCWays  int     // CAT-partitionable cache ways
	MemoryGB float64 // DRAM capacity
	MemBWGBs float64 // peak memory bandwidth, GB/s
	NetGbps  float64 // network link rate, Gb/s
	TDPWatts float64 // socket power budget (RAPL cap)
	BaseGHz  float64 // nominal core frequency
	MinGHz   float64 // lowest DVFS operating point
	MaxGHz   float64 // highest DVFS operating point
}

// Capacities returns the machine's per-resource capacity vector.
func (s MachineSpec) Capacities() Vector {
	var c Vector
	c[ResCPU] = float64(s.Cores)
	c[ResLLC] = float64(s.LLCWays)
	c[ResMemBW] = s.MemBWGBs
	c[ResNetBW] = s.NetGbps
	c[ResMemory] = s.MemoryGB
	c[ResPower] = s.TDPWatts
	return c
}

// DefaultSpec returns the testbed machine of §5.1.
func DefaultSpec() MachineSpec {
	return MachineSpec{
		Cores:    40,
		LLCWays:  20,
		MemoryGB: 256,
		MemBWGBs: 68, // quad-socket DDR4-1866 aggregate, conservative
		NetGbps:  10,
		TDPWatts: 460, // 4 sockets x 115 W
		BaseGHz:  2.0,
		MinGHz:   1.2,
		MaxGHz:   2.0,
	}
}

// Owner identifies who holds an allocation on a machine: the LC Servpod or
// a BE job instance.
type Owner struct {
	Kind OwnerKind
	Name string // Servpod name or BE instance id
}

// OwnerKind distinguishes LC from BE allocations.
type OwnerKind int

// Allocation owner kinds.
const (
	OwnerLC OwnerKind = iota
	OwnerBE
)

// String returns "lc" or "be".
func (k OwnerKind) String() string {
	if k == OwnerLC {
		return "lc"
	}
	return "be"
}

// Alloc is one owner's current grant on a machine. Cores and LLC ways are
// integers in the real system; they are tracked as float64 here only in the
// bandwidth dimensions.
type Alloc struct {
	Cores    int
	LLCWays  int
	MemoryGB float64
	MemBWGBs float64 // reserved share enforced by the model
	NetGbps  float64 // qdisc class rate
	FreqGHz  float64 // DVFS operating point for this owner's cores
}

// Machine is one physical machine plus its allocation ledger. It enforces
// the capacity invariants: the sum of granted cores, ways, memory and
// bandwidth never exceeds the spec. Machine is not safe for concurrent use;
// the simulation is single-threaded.
//
// The ledger is one sorted index, owners in the order every reader wants
// (LC first, then BE, each by name) beside their grants: lookups binary
// search it, free-capacity checks walk it as a flat slice, re-granting an
// existing owner updates its Alloc in place, and the subcontrollers
// iterate the BE suffix without sorting. That keeps control ticks
// allocation-free — the fleet layer runs ~100 of them per epoch.
type Machine struct {
	Name string
	Spec MachineSpec

	// owners and ownerAllocs are the ledger in sorted order (LC owners
	// first, then BE, each by name); lcCount is the LC prefix length.
	owners      []Owner
	ownerAllocs []*Alloc
	lcCount     int

	// overErr is the reused oversubscription error. Failed grants are how
	// the isolation agents probe for headroom every control tick, so the
	// failure path must not allocate; the message is formatted lazily in
	// Error(), and the value is valid until the machine's next failed
	// Grant.
	overErr overcommitError
}

// overcommitError reports a Grant that would violate a capacity
// invariant. It formats its message on demand so the headroom-probe hot
// path (grant, check, roll back) never touches the allocator.
type overcommitError struct {
	m *Machine
	o Owner
	u Alloc
}

func (e *overcommitError) Error() string {
	return fmt.Sprintf("cluster: grant to %s/%s oversubscribes %s (cores %d/%d, ways %d/%d, mem %.1f/%.1f GB, net %.1f/%.1f Gbps)",
		e.o.Kind, e.o.Name, e.m.Name, e.u.Cores, e.m.Spec.Cores, e.u.LLCWays, e.m.Spec.LLCWays,
		e.u.MemoryGB, e.m.Spec.MemoryGB, e.u.NetGbps, e.m.Spec.NetGbps)
}

// NewMachine returns an empty machine with the given spec.
func NewMachine(name string, spec MachineSpec) *Machine {
	return &Machine{Name: name, Spec: spec}
}

// Alloc returns the current grant for owner, or nil if none. The pointed-to
// value is updated in place when the owner is re-granted, so a held pointer
// always reads the owner's current grant (and must be re-fetched only after
// a Release).
func (m *Machine) Alloc(o Owner) *Alloc {
	if i, ok := m.ownerIdx(o); ok {
		return m.ownerAllocs[i]
	}
	return nil
}

// ownerIdx returns the sorted position of o in owners and whether it is
// present (binary search on the LC-first, then-by-name order).
func (m *Machine) ownerIdx(o Owner) (int, bool) {
	lo, hi := 0, len(m.owners)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := m.owners[mid]
		if c.Kind < o.Kind || (c.Kind == o.Kind && c.Name < o.Name) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.owners) && m.owners[lo] == o
}

// insertOwner adds o at sorted position i, which ownerIdx reported absent.
func (m *Machine) insertOwner(i int, o Owner, a *Alloc) {
	m.owners = append(m.owners, Owner{})
	copy(m.owners[i+1:], m.owners[i:])
	m.owners[i] = o
	m.ownerAllocs = append(m.ownerAllocs, nil)
	copy(m.ownerAllocs[i+1:], m.ownerAllocs[i:])
	m.ownerAllocs[i] = a
	if o.Kind == OwnerLC {
		m.lcCount++
	}
}

// removeOwner drops the owner at sorted position i.
func (m *Machine) removeOwner(i int) {
	o := m.owners[i]
	m.owners = append(m.owners[:i], m.owners[i+1:]...)
	m.ownerAllocs = append(m.ownerAllocs[:i], m.ownerAllocs[i+1:]...)
	if o.Kind == OwnerLC {
		m.lcCount--
	}
}

// used sums all grants, walking the sorted ledger so the float sums are
// evaluated in a deterministic order.
func (m *Machine) used() Alloc {
	var u Alloc
	for _, a := range m.ownerAllocs {
		u.Cores += a.Cores
		u.LLCWays += a.LLCWays
		u.MemoryGB += a.MemoryGB
		u.MemBWGBs += a.MemBWGBs
		u.NetGbps += a.NetGbps
	}
	return u
}

// FreeCores returns the number of unallocated cores.
func (m *Machine) FreeCores() int { return m.Spec.Cores - m.used().Cores }

// FreeLLCWays returns the number of unallocated cache ways.
func (m *Machine) FreeLLCWays() int { return m.Spec.LLCWays - m.used().LLCWays }

// FreeMemoryGB returns unallocated DRAM in GB.
func (m *Machine) FreeMemoryGB() float64 { return m.Spec.MemoryGB - m.used().MemoryGB }

// FreeNetGbps returns unreserved network bandwidth.
func (m *Machine) FreeNetGbps() float64 { return m.Spec.NetGbps - m.used().NetGbps }

// Grant installs or replaces the allocation for owner after validating that
// the machine-wide invariants hold. On violation it returns an error and
// leaves the ledger unchanged.
func (m *Machine) Grant(o Owner, a Alloc) error {
	if a.Cores < 0 || a.LLCWays < 0 || a.MemoryGB < 0 || a.MemBWGBs < 0 || a.NetGbps < 0 {
		return fmt.Errorf("cluster: negative allocation for %s/%s: %+v", o.Kind, o.Name, a)
	}
	if a.FreqGHz != 0 && (a.FreqGHz < m.Spec.MinGHz-1e-9 || a.FreqGHz > m.Spec.MaxGHz+1e-9) {
		return fmt.Errorf("cluster: frequency %.2f GHz outside [%.2f, %.2f]",
			a.FreqGHz, m.Spec.MinGHz, m.Spec.MaxGHz)
	}
	i, had := m.ownerIdx(o)
	if had {
		// Re-grant: update the existing Alloc in place so no allocation
		// happens and held pointers keep reading the current grant.
		prev := m.ownerAllocs[i]
		old := *prev
		*prev = a
		u := m.used()
		if u.Cores > m.Spec.Cores || u.LLCWays > m.Spec.LLCWays ||
			u.MemoryGB > m.Spec.MemoryGB+1e-9 || u.NetGbps > m.Spec.NetGbps+1e-9 {
			*prev = old
			return m.oversubscribed(o, u)
		}
		return nil
	}
	// A fresh heap Alloc only on the new-owner path; taking &a directly
	// would force a on the re-grant hot path onto the heap too.
	na := new(Alloc)
	*na = a
	m.insertOwner(i, o, na)
	u := m.used()
	if u.Cores > m.Spec.Cores || u.LLCWays > m.Spec.LLCWays ||
		u.MemoryGB > m.Spec.MemoryGB+1e-9 || u.NetGbps > m.Spec.NetGbps+1e-9 {
		m.removeOwner(i)
		return m.oversubscribed(o, u)
	}
	return nil
}

// oversubscribed fills the machine's reused invariant-violation error for
// Grant. The returned value is overwritten by the next failed grant;
// callers that retain errors must capture Error() first (none in this
// repository do — the actuators treat it as a headroom boolean).
func (m *Machine) oversubscribed(o Owner, u Alloc) error {
	m.overErr = overcommitError{m: m, o: o, u: u}
	return &m.overErr
}

// Release removes owner's allocation. Releasing an absent owner is a no-op.
func (m *Machine) Release(o Owner) {
	if i, ok := m.ownerIdx(o); ok {
		m.removeOwner(i)
	}
}

// BEOwnersView returns the BE owners sorted by name as a read-only view of
// the machine's sorted ledger: valid until the next Grant of a new owner
// or Release, and never to be mutated by the caller. Re-granting an
// existing owner (the subcontrollers' step operations) does not disturb
// it, so iterating the view while adjusting grants is safe — the
// allocation-free path the per-control-tick actuators use.
func (m *Machine) BEOwnersView() []Owner {
	return m.owners[m.lcCount:]
}

// BETotals sums all BE grants on the machine.
func (m *Machine) BETotals() Alloc {
	var u Alloc
	for _, a := range m.ownerAllocs[m.lcCount:] {
		u.Cores += a.Cores
		u.LLCWays += a.LLCWays
		u.MemoryGB += a.MemoryGB
		u.MemBWGBs += a.MemBWGBs
		u.NetGbps += a.NetGbps
	}
	return u
}
