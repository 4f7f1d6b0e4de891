// Package fleet is the datacenter layer (ROADMAP item 1): it scales the
// per-machine Algorithm-2 controllers of internal/engine to N machines
// coordinated through the shared BE queue of internal/scheduler,
// reproducing §4's "interact with scheduler" protocol at fleet size.
//
// # Topology
//
// A fleet is a list of service replicas. Each replica is one engine — one
// machine per component, its own controller loop, its own RNG stream
// seeded sim.SubSeed(seed, "fleet/<replica>") — so a 100-machine fleet is
// ~30 replicas of the six catalog services. BE jobs arrive to a single
// scheduler.Scheduler; machines signal accept/deny through their top
// controller's last action; the scheduler dispatches queued jobs to
// accepting machines and re-queues jobs the machines later kill.
//
// # Epoch barriers and determinism
//
// Time advances in 2 s epochs, each engine's control period. One epoch is
//
//	arrivals (serial) -> machine slices (parallel) -> barrier (serial)
//
// Arrivals draw from the content-keyed substream
// "fleet/arrivals/<epoch>", so epoch e's arrival count never depends on
// worker scheduling. The machine slices run engine.RunUntil concurrently
// via sim.ForEach — legal because engines share no mutable state and a
// chunked RunUntil is bitwise-identical to one sweep. The barrier then
// walks replicas in fixed order: evictions re-queue, machine views are
// collected, the scheduler dispatches, and admissions land — all serial,
// all order-fixed. Every byte of the result is therefore identical at any
// -jobs value, the same contract every experiment table in this repo
// carries (DESIGN.md §7).
//
// # Requeue semantics
//
// A killed job re-enters the queue head with its submission time reset to
// the eviction epoch: the queue-wait statistics measure time-to-(re)place,
// not total job lifetime, matching how the paper's testbed scheduler sees
// a re-submitted job as new work.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	"rhythm/internal/scheduler"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// Entry is one service class in the fleet: a service deployed identically
// on Replicas replicas, each controlled by Policy against SLA.
type Entry struct {
	Service  *workload.Service
	Replicas int
	Policy   controller.Policy
	// SLA is the class's tail-latency target in seconds.
	SLA float64
}

// epoch is the barrier interval, 2 s. It is also each engine's control
// period, so accept/deny signals refresh exactly once per epoch.
const epoch = 2 * time.Second

// Config configures a fleet run. Every machine is a cluster.DefaultSpec
// machine.
type Config struct {
	// Entries define the fleet composition; at least one is required.
	Entries []Entry
	// Pattern is the offered LC load, shared by every replica (a
	// datacenter-wide diurnal). Required.
	Pattern loadgen.Pattern
	// BETypes is the BE job mix submitted to the shared queue, cycled
	// deterministically. Default: wordcount, CPU-stress, stream-dram,
	// imageClassify — the Table 1 mix spanning CPU-, memory- and
	// mixed-pressure jobs.
	BETypes []bejobs.Type
	// ArrivalsPerMachineHour is the mean BE submission rate, scaled by
	// fleet size. Default 45: Alibaba co-location traces (arXiv
	// 1808.02919, 1811.06901) show batch instances outnumbering online
	// containers roughly 3:1 with batch runtimes in minutes, which at
	// Table 1 job granularity works out to tens of submissions per
	// machine-hour.
	ArrivalsPerMachineHour float64
	// QueueLimit bounds the shared BE queue (default 1024).
	QueueLimit int
	// Duration is the simulated time (required); Warmup discards the
	// initial transient inside each engine.
	Duration time.Duration
	Warmup   time.Duration
	// Seed is the fleet's root seed; every replica and every arrival
	// epoch forks a content-keyed substream from it.
	Seed uint64
	// Jobs is the worker count for the parallel machine slices
	// (0 = GOMAXPROCS). Output is byte-identical at any value.
	Jobs int
}

// replica is one deployed service instance.
type replica struct {
	name  string
	entry int
	eng   *engine.Engine
	stats *engine.RunStats
	// names holds the fleet-wide machine names ("<replica>/<pod>") in
	// component order — the order MachineViews reports — precomputed at
	// New so the epoch barrier never rebuilds them.
	names []string
}

// owner locates the replica and pod behind a fleet-wide machine name.
type owner struct {
	rep int
	pod string
}

// Fleet is a configured fleet run. Not safe for concurrent use; the
// parallelism lives inside Step.
type Fleet struct {
	cfg      Config
	replicas []*replica
	owners   map[string]owner
	sched    *scheduler.Scheduler
	machines int

	now    sim.Time
	epochs int
	arrSeq int
	// arrRNG and labelBuf are reused per epoch: the arrival substream
	// label "fleet/arrivals/<epoch>" is assembled in labelBuf and hashed
	// with sim.SubSeed, and arrRNG is reseeded in place, so drawing
	// the epoch's Poisson batch allocates nothing.
	arrRNG   sim.RNG
	labelBuf []byte
	// waits holds one queue-wait sample per successful placement.
	waits []float64
	// states is reused across epochs to keep the barrier allocation-free
	// at steady state.
	states []scheduler.MachineState

	// Observability (nil/zero without a bus at New time). The fleet emits
	// only from the serial sections — arrivals and the epoch barrier — so
	// traced runs stay byte-identical on stdout at any -jobs: epoch
	// brackets as run events, BE queue transitions (dispatch, requeue,
	// evict) as be events, and the post-barrier queue depth as a gauge.
	obsScope   obs.Scope
	obsPending *obs.Gauge
	obsEpochs  *obs.Counter
}

// New builds a fleet. Entries are deployed in order; replica r of entry
// i is named "<service>-<r>" and seeds its engine from
// sim.SubSeed(cfg.Seed, "fleet/<name>") — adding a class never perturbs
// another class's streams.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("fleet: no entries")
	}
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("fleet: load pattern required")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fleet: non-positive duration %v", cfg.Duration)
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	if cfg.ArrivalsPerMachineHour <= 0 {
		cfg.ArrivalsPerMachineHour = 45
	}
	if len(cfg.BETypes) == 0 {
		cfg.BETypes = []bejobs.Type{bejobs.Wordcount, bejobs.CPUStress, bejobs.StreamDRAM, bejobs.ImageClassify}
	}
	f := &Fleet{
		cfg:    cfg,
		owners: make(map[string]owner),
		sched:  scheduler.New(cfg.QueueLimit),
	}
	if bus := obs.Active(); bus != nil {
		f.obsScope = bus.Scope("fleet")
		f.obsPending = bus.Gauge("rhythm_fleet_pending_jobs")
		f.obsEpochs = bus.Counter("rhythm_fleet_epochs_total")
	}
	for i, ent := range cfg.Entries {
		if ent.Service == nil || ent.Replicas <= 0 {
			return nil, fmt.Errorf("fleet: entry %d: service and positive replica count required", i)
		}
		if ent.Policy == nil {
			return nil, fmt.Errorf("fleet: entry %d (%s): policy required", i, ent.Service.Name)
		}
		for r := 0; r < ent.Replicas; r++ {
			name := fmt.Sprintf("%s-%d", ent.Service.Name, r)
			eng, err := engine.New(engine.Config{
				Service:       ent.Service,
				Pattern:       cfg.Pattern,
				SLA:           ent.SLA,
				Policy:        ent.Policy,
				ExternalBE:    true,
				Seed:          sim.SubSeed(cfg.Seed, "fleet/"+name),
				ControlPeriod: epoch,
				Warmup:        cfg.Warmup,
				Label:         "fleet/" + name,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet: replica %s: %w", name, err)
			}
			rep := &replica{name: name, entry: i, eng: eng}
			ri := len(f.replicas)
			f.replicas = append(f.replicas, rep)
			for _, c := range ent.Service.Components {
				full := name + "/" + c.Name
				rep.names = append(rep.names, full)
				f.owners[full] = owner{rep: ri, pod: c.Name}
			}
			f.machines += len(ent.Service.Components)
		}
	}
	return f, nil
}

// Machines returns the fleet's machine count.
func (f *Fleet) Machines() int { return f.machines }

// Epochs returns how many epochs have run.
func (f *Fleet) Epochs() int { return f.epochs }

// Step advances the fleet by one epoch: submit arrivals, run every
// machine slice in parallel to the epoch end, then resolve the scheduler
// barrier serially in replica order.
func (f *Fleet) Step() {
	epochEnd := f.now.Add(epoch)
	if f.obsScope.Enabled() {
		// Reason strings are built only under an installed bus.
		f.obsScope.RunPhase(int64(f.now), "epoch-start", fmt.Sprintf("epoch %d", f.epochs))
	}

	// Arrivals: a Poisson batch for this epoch from its own substream.
	// The label is assembled in a reused buffer and hashed directly, to
	// the same seed fmt.Sprintf + SubSeed gave.
	mean := f.cfg.ArrivalsPerMachineHour * float64(f.machines) * epoch.Hours()
	f.labelBuf = append(f.labelBuf[:0], "fleet/arrivals/"...)
	f.labelBuf = strconv.AppendInt(f.labelBuf, int64(f.epochs), 10)
	f.arrRNG.Reseed(sim.SubSeed(f.cfg.Seed, f.labelBuf))
	n := int(loadgen.Poisson(&f.arrRNG, mean))
	for i := 0; i < n; i++ {
		ty := f.cfg.BETypes[f.arrSeq%len(f.cfg.BETypes)]
		f.arrSeq++
		f.sched.Submit(ty, f.now) // a full queue counts under Dropped
	}

	// Machine slices: engines share nothing, so replicas advance
	// concurrently; each consumes only its own forked RNG streams.
	sim.ForEach(len(f.replicas), f.cfg.Jobs, func(i int) {
		f.replicas[i].stats = f.replicas[i].eng.RunUntil(epochEnd)
	})

	// Barrier, in fixed replica order. Evictions first: a killed job
	// re-enters at the queue head before this epoch's dispatch.
	for _, rep := range f.replicas {
		for _, ev := range rep.eng.TakeEvicted() {
			if f.obsScope.Enabled() {
				f.obsScope.BE(int64(epochEnd), rep.name+"/"+ev.Pod, ev.ID, "evict", 0, 0)
			}
			if f.sched.Requeue(scheduler.Job{ID: ev.ID, Type: ev.Type, SubmittedAt: epochEnd}) &&
				f.obsScope.Enabled() {
				f.obsScope.BE(int64(epochEnd), rep.name+"/"+ev.Pod, ev.ID, "requeue", 0, 0)
			}
		}
	}
	f.states = f.states[:0]
	for _, rep := range f.replicas {
		start := len(f.states)
		f.states = rep.eng.MachineViews(f.states)
		for i := range f.states[start:] {
			f.states[start+i].Name = rep.names[i]
		}
	}
	for _, as := range f.sched.Dispatch(f.states, epochEnd) {
		o := f.owners[as.Machine]
		rep := f.replicas[o.rep]
		if rep.eng.AdmitBE(o.pod, as.Job.Type, as.Job.ID) {
			f.waits = append(f.waits, as.Waited.Seconds())
			if f.obsScope.Enabled() {
				f.obsScope.BE(int64(epochEnd), as.Machine, as.Job.ID, "dispatch", 0, 0)
			}
		} else {
			// The fit check passed on free cores and memory, but the
			// isolation agent also needs LLC ways for the starting
			// slice; back to the queue head for the next epoch.
			if f.sched.Requeue(as.Job) && f.obsScope.Enabled() {
				f.obsScope.BE(int64(epochEnd), as.Machine, as.Job.ID, "requeue", 0, 0)
			}
		}
	}

	f.now = epochEnd
	f.epochs++
	f.obsEpochs.Inc()
	f.obsPending.Set(float64(f.sched.Pending()))
	if f.obsScope.Enabled() {
		f.obsScope.RunPhase(int64(epochEnd), "epoch-end",
			fmt.Sprintf("epoch %d: %d pending", f.epochs-1, f.sched.Pending()))
	}
}

// Run executes the configured duration (rounded up to whole epochs) and
// returns the aggregated scorecard.
func (f *Fleet) Run() *Result {
	steps := int((f.cfg.Duration + epoch - 1) / epoch)
	for i := 0; i < steps; i++ {
		f.Step()
	}
	return f.Result()
}

// ClassStats is the per-service-class scorecard row.
type ClassStats struct {
	Service  string
	Replicas int
	Machines int
	// MeanP99 and WorstP99 aggregate the replicas' window p99: the mean
	// of per-replica means, and the worst single replica.
	MeanP99  float64
	WorstP99 float64
	SLA      float64
	// ViolationSeconds sums SLA-violating control periods across
	// replicas.
	ViolationSeconds float64
	// BEThroughput, CPUUtil and MemBWUtil are fleet means over the
	// class's machines.
	BEThroughput float64
	CPUUtil      float64
	MemBWUtil    float64
	Kills        int
	Crashes      int
	Completions  int
}

// QueueStats is the shared BE queue's scorecard.
type QueueStats struct {
	Submitted      int
	Rejected       int // fresh submissions bounced off a full queue
	Requeued       int // evicted jobs taken back
	RequeueDropped int // evicted jobs lost to a full queue
	Dispatched     int
	Pending        int
	MeanWaitS      float64
	P50WaitS       float64
	P99WaitS       float64
}

// Result is the fleet-wide scorecard.
type Result struct {
	Machines int
	Replicas int
	Epochs   int
	Classes  []ClassStats
	// CPUHist and MemBWHist bucket each machine's mean utilization into
	// deciles ([0,10), [10,20), ... [90,100+] percent).
	CPUHist   [10]int
	MemBWHist [10]int
	Queue     QueueStats
	// Completions counts finished BE jobs fleet-wide;
	// GoodputPerMachineHour normalizes by machine-hours simulated.
	Completions           int
	GoodputPerMachineHour float64
	Kills                 int
	Crashes               int
}

// Result aggregates the scorecard so far. Classes appear in Entries
// order; histograms and goodput cover every machine.
func (f *Fleet) Result() *Result {
	res := &Result{
		Machines: f.machines,
		Replicas: len(f.replicas),
		Epochs:   f.epochs,
		Classes:  make([]ClassStats, len(f.cfg.Entries)),
	}
	for i, ent := range f.cfg.Entries {
		res.Classes[i] = ClassStats{Service: ent.Service.Name, Replicas: ent.Replicas, SLA: ent.SLA}
	}
	for _, rep := range f.replicas {
		cs := &res.Classes[rep.entry]
		st := rep.stats
		if st == nil {
			continue
		}
		cs.Machines += len(st.PerPod)
		cs.MeanP99 += st.MeanP99
		if st.WorstP99 > cs.WorstP99 {
			cs.WorstP99 = st.WorstP99
		}
		cs.ViolationSeconds += st.ViolationSeconds
		cs.Kills += st.TotalKills()
		cs.Crashes += st.TotalCrashes()
		// Per-pod walk in component order keeps the histograms
		// deterministic (PerPod is a map).
		svc := f.cfg.Entries[rep.entry].Service
		for _, c := range svc.Components {
			p := st.PerPod[c.Name]
			if p == nil {
				continue
			}
			cs.BEThroughput += p.BEThroughput
			cs.CPUUtil += p.CPUUtil
			cs.MemBWUtil += p.MemBWUtil
			cs.Completions += p.Completions
			res.CPUHist[utilBucket(p.CPUUtil)]++
			res.MemBWHist[utilBucket(p.MemBWUtil)]++
		}
	}
	for i := range res.Classes {
		cs := &res.Classes[i]
		if cs.Replicas > 0 {
			cs.MeanP99 /= float64(cs.Replicas)
		}
		if cs.Machines > 0 {
			cs.BEThroughput /= float64(cs.Machines)
			cs.CPUUtil /= float64(cs.Machines)
			cs.MemBWUtil /= float64(cs.Machines)
		}
		res.Completions += cs.Completions
		res.Kills += cs.Kills
		res.Crashes += cs.Crashes
	}
	if hours := epoch.Hours() * float64(f.epochs) * float64(f.machines); hours > 0 {
		res.GoodputPerMachineHour = float64(res.Completions) / hours
	}
	res.Queue = QueueStats{
		Submitted:      f.sched.Submitted(),
		Rejected:       f.sched.Dropped(),
		Requeued:       f.sched.Requeued(),
		RequeueDropped: f.sched.RequeueDropped(),
		Dispatched:     f.sched.Dispatched(),
		Pending:        f.sched.Pending(),
		MeanWaitS:      f.sched.MeanWait(),
	}
	if len(f.waits) > 0 {
		ws := append([]float64(nil), f.waits...)
		sort.Float64s(ws)
		res.Queue.P50WaitS = sim.QuantileSorted(ws, 0.50)
		res.Queue.P99WaitS = sim.QuantileSorted(ws, 0.99)
	}
	return res
}

// utilBucket maps a utilization fraction to its decile bucket.
func utilBucket(u float64) int {
	b := int(math.Floor(u * 10))
	if b < 0 {
		b = 0
	}
	if b > 9 {
		b = 9
	}
	return b
}
