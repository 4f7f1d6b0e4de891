// Package bejobs models the best-effort batch jobs of Table 1: four
// synthetic microbenchmarks that each saturate one shared resource
// (CPU-stress, stream-llc, stream-dram, iperf) and three real workloads
// with mixed pressure (wordcount, imageClassify, LSTM).
//
// A BE job type is described by the per-core pressure it exerts on each
// shared resource and by how many cores it would use running alone on a
// machine. Instances are granted resources by the subcontrollers
// (internal/controller); their progress rate — and hence the normalized
// "BE throughput" metric of §5.1 — follows from the grant.
package bejobs

import (
	"fmt"

	"rhythm/internal/cluster"
)

// Type identifies a BE job type from Table 1.
type Type string

// The seven BE job types of Table 1, plus the big/small intensity variants
// of the two stream benchmarks used in the Fig. 2 characterization.
const (
	CPUStress     Type = "CPU-stress"
	StreamLLC     Type = "stream-llc"
	StreamDRAM    Type = "stream-dram"
	Iperf         Type = "iperf"
	Wordcount     Type = "wordcount"
	ImageClassify Type = "imageClassify"
	LSTM          Type = "LSTM"

	// Intensity variants for §2's characterization: big saturates the
	// resource, small occupies about half of it.
	StreamLLCBig    Type = "stream-llc(big)"
	StreamLLCSmall  Type = "stream-llc(small)"
	StreamDRAMBig   Type = "stream-dram(big)"
	StreamDRAMSmall Type = "stream-dram(small)"
)

// Spec describes the resource behaviour of one BE job type.
type Spec struct {
	Type   Type
	Domain string // Table 1 "Domain" column
	// Intensive is the Table 1 "-intensive" column: which resource the
	// job stresses, or "mixed".
	Intensive string

	// PerCore is the pressure one core of this job exerts on each shared
	// resource dimension. CPU pressure is 1 per core by construction;
	// LLC pressure is in cache ways the job's working set would occupy;
	// MemBW in GB/s; NetBW in Gb/s; Power in watts above idle.
	PerCore cluster.Vector

	// MemoryGB is the per-instance resident set (paper §3.5.2: instances
	// start at 2 GB and are adjusted in 100 MB steps).
	MemoryGB float64

	// SoloCores is how many cores the job uses when it runs alone on a
	// 40-core machine; normalized throughput is measured against this.
	SoloCores int

	// SoloHours is the solo completion time of one job in hours; only
	// the ratio between granted and solo rate matters for the normalized
	// throughput metric, but completion counting (Table 2 "BE kills")
	// uses it.
	SoloHours float64
}

// MinDispatchCores is the smallest free-core count at which placing the
// job on a machine is worthwhile: an eighth of its solo footprint,
// rounded up, at least one core. Placement itself only grants the §3.5.2
// starting slice (a single core), so any machine can technically host
// any job — but Rate is linear in granted cores, so a machine that can
// never grow the instance past SoloCores/8 pins it below 12.5% of its
// solo rate, stretching a half-hour job past four hours while it holds
// memory and a BE slot the whole time. The cluster scheduler
// (internal/scheduler) treats such a machine as a non-fit and keeps the
// job queued for one with real headroom.
func (s Spec) MinDispatchCores() int {
	if min := (s.SoloCores + 7) / 8; min > 1 {
		return min
	}
	return 1
}

// catalog holds the calibrated BE specs. Pressure magnitudes are chosen so
// that "big" variants saturate their resource on the default machine
// (68 GB/s memBW, 20 ways, 10 Gb/s) when running solo, matching the §2
// definition, and the mixed jobs reproduce the orderings of Figs. 9-14
// (LSTM and CPU-stress are CPU-heavy; wordcount and stream-dram are
// memBW-heavy; imageClassify sits in between).
var catalog = map[Type]Spec{
	CPUStress: {
		Type: CPUStress, Domain: "CPU stress testing tool", Intensive: "CPU",
		PerCore:  vec(1.0, 0.05, 0.15, 0, 0, 3.2),
		MemoryGB: 0.5, SoloCores: 38, SoloHours: 0.5,
	},
	StreamLLC: {
		Type: StreamLLC, Domain: "LLC-benchmark in iBench", Intensive: "LLC",
		PerCore:  vec(1.0, 2.5, 0.9, 0, 0, 2.4),
		MemoryGB: 1, SoloCores: 8, SoloHours: 0.5,
	},
	StreamDRAM: {
		Type: StreamDRAM, Domain: "DRAM-benchmark in iBench", Intensive: "DRAM",
		PerCore:  vec(1.0, 0.8, 8.5, 0, 0, 2.8),
		MemoryGB: 4, SoloCores: 8, SoloHours: 0.5,
	},
	Iperf: {
		Type: Iperf, Domain: "Network stress testing tool", Intensive: "Network",
		PerCore:  vec(1.0, 0.1, 0.3, 4.8, 0, 1.6),
		MemoryGB: 0.3, SoloCores: 2, SoloHours: 0.5,
	},
	Wordcount: {
		Type: Wordcount, Domain: "Big data analytics", Intensive: "mixed",
		PerCore:  vec(1.0, 0.9, 3.6, 0.25, 0, 2.6),
		MemoryGB: 2, SoloCores: 32, SoloHours: 1.2,
	},
	ImageClassify: {
		Type: ImageClassify, Domain: "Image classification on CycleGAN", Intensive: "mixed",
		PerCore:  vec(1.0, 0.6, 2.2, 0.05, 0, 3.0),
		MemoryGB: 3, SoloCores: 30, SoloHours: 2.0,
	},
	LSTM: {
		Type: LSTM, Domain: "Deep learning on Tensorflow", Intensive: "mixed",
		PerCore:  vec(1.0, 0.4, 1.6, 0.02, 0, 3.1),
		MemoryGB: 3, SoloCores: 36, SoloHours: 2.5,
	},

	// §2 intensity variants. "big" saturates the target resource on the
	// default machine (8 cores x 8.5 GB/s = 68 GB/s for stream-dram;
	// 8 x 2.5 = 20 ways for stream-llc); "small" halves the pressure.
	StreamLLCBig: {
		Type: StreamLLCBig, Domain: "LLC-benchmark in iBench", Intensive: "LLC",
		PerCore:  vec(1.0, 2.5, 0.9, 0, 0, 2.4),
		MemoryGB: 1, SoloCores: 8, SoloHours: 0.5,
	},
	StreamLLCSmall: {
		Type: StreamLLCSmall, Domain: "LLC-benchmark in iBench", Intensive: "LLC",
		PerCore:  vec(1.0, 1.25, 0.45, 0, 0, 1.9),
		MemoryGB: 1, SoloCores: 8, SoloHours: 0.5,
	},
	StreamDRAMBig: {
		Type: StreamDRAMBig, Domain: "DRAM-benchmark in iBench", Intensive: "DRAM",
		PerCore:  vec(1.0, 0.8, 8.5, 0, 0, 2.8),
		MemoryGB: 4, SoloCores: 8, SoloHours: 0.5,
	},
	StreamDRAMSmall: {
		Type: StreamDRAMSmall, Domain: "DRAM-benchmark in iBench", Intensive: "DRAM",
		PerCore:  vec(1.0, 0.4, 4.25, 0, 0, 2.2),
		MemoryGB: 4, SoloCores: 8, SoloHours: 0.5,
	},
}

func vec(cpu, llc, membw, netbw, mem, power float64) cluster.Vector {
	var v cluster.Vector
	v[cluster.ResCPU] = cpu
	v[cluster.ResLLC] = llc
	v[cluster.ResMemBW] = membw
	v[cluster.ResNetBW] = netbw
	v[cluster.ResMemory] = mem
	v[cluster.ResPower] = power
	return v
}

// Lookup returns the spec for a BE type.
func Lookup(t Type) (Spec, error) {
	s, ok := catalog[t]
	if !ok {
		return Spec{}, fmt.Errorf("bejobs: unknown BE type %q", t)
	}
	return s, nil
}

// MustLookup is Lookup for known-good types; it panics on unknown types.
func MustLookup(t Type) Spec {
	s, err := Lookup(t)
	if err != nil {
		panic(err)
	}
	return s
}

// Types returns the seven Table 1 BE types in a stable order.
func Types() []Type {
	return []Type{CPUStress, StreamLLC, StreamDRAM, Iperf, Wordcount, ImageClassify, LSTM}
}

// EvaluationTypes returns the six types used in the Fig. 9-16 grids
// (iperf is used in §2's characterization but not in the co-location
// grids, which use SL/SD/CS/LS/IC/WC).
func EvaluationTypes() []Type {
	return []Type{StreamLLC, StreamDRAM, CPUStress, LSTM, ImageClassify, Wordcount}
}

// State is the lifecycle state of a BE instance.
type State int

// Instance lifecycle states. Suspended instances keep memory but do not run
// (paper's SuspendBE); killed instances are terminated and their resources
// released (StopBE).
const (
	Running State = iota
	Suspended
	Killed
	Finished
)

// String names the state.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Killed:
		return "killed"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Instance is one running BE job on one machine.
type Instance struct {
	ID    string
	Spec  Spec
	State State
	// Progress in [0,1]; reaching 1 completes the job.
	Progress float64
	// Completions counts jobs finished by this instance slot (a finished
	// instance restarts a fresh job, keeping its allocation).
	Completions int
}

// NewInstance returns a running instance of the given type.
func NewInstance(id string, t Type) (*Instance, error) {
	s, err := Lookup(t)
	if err != nil {
		return nil, err
	}
	return &Instance{ID: id, Spec: s, State: Running}, nil
}

// Demand returns the pressure this instance exerts on the machine's shared
// resources given its granted core count. Suspended and killed instances
// exert no pressure.
func (in *Instance) Demand(grantedCores int) cluster.Vector {
	if in.State != Running || grantedCores <= 0 {
		return cluster.Vector{}
	}
	return in.Spec.PerCore.Scale(float64(grantedCores))
}

// Rate returns the instantaneous normalized progress rate: the fraction of
// the job's solo (whole-machine) rate it achieves with grantedCores cores
// and a resource-satisfaction factor sat in [0,1] reflecting how much of
// its bandwidth demands the machine can actually serve.
func (in *Instance) Rate(grantedCores int, sat float64) float64 {
	if in.State != Running || grantedCores <= 0 {
		return 0
	}
	if sat < 0 {
		sat = 0
	} else if sat > 1 {
		sat = 1
	}
	return float64(grantedCores) / float64(in.Spec.SoloCores) * sat
}

// Advance progresses the instance by dt hours at the given normalized rate
// and returns the number of job completions that occurred.
func (in *Instance) Advance(rate, dtHours float64) int {
	if in.State != Running || rate <= 0 {
		return 0
	}
	in.Progress += rate * dtHours / in.Spec.SoloHours
	done := 0
	for in.Progress >= 1 {
		in.Progress -= 1
		in.Completions++
		done++
	}
	return done
}
