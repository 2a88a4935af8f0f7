// Package machine composes the timed system: processors (internal/proc) with
// private caches (internal/cache), a directory/memory controller, and an
// interconnect fabric, all driven by the discrete-event engine. It is the
// harness behind Figure 3 and the quantitative Definition-1-vs-Definition-2
// experiments.
package machine

import (
	"errors"
	"fmt"
	"math/rand"

	"weakorder/internal/cache"
	"weakorder/internal/conditions"
	"weakorder/internal/faults"
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/proc"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// ProtocolKind selects the coherence action for data writes.
type ProtocolKind uint8

const (
	// ProtocolInvalidate is the Section-5.2 write-back invalidation
	// protocol (the default).
	ProtocolInvalidate ProtocolKind = iota
	// ProtocolUpdate multicasts data-write values to sharers instead of
	// invalidating them (a Rudolph/Segall-style update protocol; the paper
	// cites such designs among SC-preserving bus protocols).
	// Synchronization operations keep the exclusive/reserve path.
	ProtocolUpdate
)

// String implements fmt.Stringer.
func (p ProtocolKind) String() string {
	if p == ProtocolUpdate {
		return "update"
	}
	return "invalidate"
}

// FabricKind selects the interconnect style.
type FabricKind uint8

const (
	// FabricNetwork is a general interconnection network (per-message
	// latency, optional jitter).
	FabricNetwork FabricKind = iota
	// FabricBus is a fully serialized shared bus.
	FabricBus
)

// Config parameterizes one timed machine.
type Config struct {
	Policy   proc.Policy
	Fabric   FabricKind
	Protocol ProtocolKind
	// HitLatency is the cache-hit cost (default 1).
	HitLatency sim.Time
	// MemLatency is the directory processing cost per request (default 4).
	MemLatency sim.Time
	// NetLatency is the per-message base cost on the network fabric
	// (default 10); BusCycle the per-message bus occupancy (default 4).
	NetLatency sim.Time
	BusCycle   sim.Time
	// NetJitter adds uniform 0..NetJitter-1 extra cycles per message.
	NetJitter int
	// FIFO preserves per-link delivery order on the network (default
	// true via NewConfig; protocol correctness under non-FIFO delivery is
	// handled but reorderings make runs harder to interpret).
	FIFO bool
	// Seed drives the jitter RNG; runs are deterministic per seed.
	Seed int64
	// RecordTrace collects every completed access for post-run
	// SC/race-detector validation. Costs memory on long runs.
	RecordTrace bool
	// RecordTimings collects every access's (issue, commit, perform)
	// lifecycle for checking the Section-5.1 conditions
	// (internal/conditions).
	RecordTimings bool
	// MaxTime / MaxEvents bound the simulation (0 = generous defaults).
	MaxTime   sim.Time
	MaxEvents uint64
	// Faults wraps the fabric in a deterministic fault injector
	// (internal/faults) and switches the protocol into its fault-tolerant
	// mode: lenient message handling, bounded request retry with
	// exponential backoff, a bounded directory queue with NACKs, and the
	// directory transaction watchdog. Off by default; a fault-free run's
	// event stream is unchanged.
	Faults bool
	// FaultSeed seeds the injector's RNG (independent of Seed, so the same
	// workload can be swept across fault schedules).
	FaultSeed int64
	// FaultRates configures the injector; the zero value means
	// faults.DefaultRates().
	FaultRates faults.Rates
	// RetryTimeout/RetryLimit override the cache retransmission parameters
	// when Faults is on (0 = derived defaults).
	RetryTimeout sim.Time
	RetryLimit   int
	// WatchdogTimeout overrides the directory watchdog's transaction
	// deadline when Faults is on (0 = derived default). On top of it the
	// machine always grants the watchdog a grace of cache.BackoffBudget —
	// the worst-case time a requester can legally sleep in retry backoff —
	// so the deadline only has to cover genuinely lost transactions.
	WatchdogTimeout sim.Time
	// Metrics enables the cycle-level observability layer
	// (internal/metrics): per-processor stall attribution, per-class fabric
	// traffic, reserve-bit and directory occupancy, and the exportable
	// timeline. Off by default; a run with metrics off allocates no recorder
	// and dispatches an identical event stream.
	Metrics bool
	// DirShards spreads the directory over this many address-interleaved
	// home nodes (fabric nodes n..n+DirShards-1, mapping cache.ShardOf).
	// 0/1 keeps the single home node. A fault-free run's event stream —
	// and with it every outcome, stat, and timeline — is identical at every
	// shard count; sharding only relieves home-node serialization once
	// topologies or future per-node service limits make it matter, and keeps
	// big-P directory state partitioned.
	DirShards int
	// Topology shapes the network fabric's per-hop latency (flat,
	// dance-hall, or two-level clusters; see interconnect.Topology). Flat is
	// the default and is byte-identical to no topology at all. Ignored on
	// the bus fabric, which is a single shared medium by definition.
	Topology interconnect.TopologyKind
	// RemoteLatency is the extra cost per top-level crossing for non-flat
	// topologies (default: NetLatency).
	RemoteLatency sim.Time
	// ClusterSize is processors per cluster for the clusters topology
	// (default 8).
	ClusterSize int
	// Workload attaches an open-loop fragment source to every processor
	// (internal/workload/openloop builds them from a spec or a recorded
	// trace). The program passed to New is then a skeleton: it sizes the
	// thread population and declares the address pools in Init; each thread
	// starts pulling fragments when its skeleton code halts. Nil runs the
	// program as-is.
	Workload proc.Workload
}

// NewConfig returns a Config with the documented defaults and the given
// policy.
func NewConfig(p proc.Policy) Config {
	return Config{
		Policy:     p,
		Fabric:     FabricNetwork,
		HitLatency: 1,
		MemLatency: 4,
		NetLatency: 10,
		BusCycle:   4,
		FIFO:       true,
		Seed:       1,
	}
}

func (c *Config) defaults() {
	if c.HitLatency < 1 {
		c.HitLatency = 1
	}
	if c.MemLatency < 1 {
		c.MemLatency = 1
	}
	if c.NetLatency < 1 {
		c.NetLatency = 10
	}
	if c.BusCycle < 1 {
		c.BusCycle = 4
	}
	if c.MaxTime == 0 {
		c.MaxTime = 50_000_000
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 200_000_000
	}
	if c.DirShards < 1 {
		c.DirShards = 1
	}
	if c.Topology != interconnect.TopoFlat && c.RemoteLatency < 1 {
		c.RemoteLatency = c.NetLatency
	}
	if c.ClusterSize < 1 {
		c.ClusterSize = 8
	}
	if c.Faults {
		if c.FaultRates.MaxDelay < 1 {
			c.FaultRates.MaxDelay = faults.DefaultRates().MaxDelay
		}
		if c.RetryTimeout < 1 {
			// Comfortably above one request/response round trip plus the
			// worst injected delay, so fault-free transactions never retry.
			c.RetryTimeout = 8 * (c.NetLatency + c.MemLatency + c.FaultRates.MaxDelay)
		}
		if c.RetryLimit < 1 {
			c.RetryLimit = 8
		}
		if c.WatchdogTimeout < 1 {
			// Lost-message deadline: a few full round trips. The watchdog's
			// effective deadline adds cache.BackoffBudget (set in New) for
			// time legally spent sleeping in retry backoff, so this no longer
			// needs to over-approximate the exponential budget itself — the
			// old shifted derivation overflowed for large RetryLimit exactly
			// like the unclamped cache backoff did.
			c.WatchdogTimeout = 16 * c.RetryTimeout
		}
	}
}

// Result reports one run.
type Result struct {
	// Cycles is the completion time of the last processor.
	Cycles sim.Time
	// ProcFinish is each processor's completion time.
	ProcFinish []sim.Time
	// ProcStats holds each processor's counters (stall cycles by class).
	ProcStats []*stats.Counters
	// CacheStats holds each cache's counters (hits, misses, reserves...).
	CacheStats []*stats.Counters
	// DirStats is the directory's counters, aggregated over shards when the
	// directory is sharded.
	DirStats *stats.Counters
	// DirShardStats is each directory shard's own counter bag (one entry for
	// the unsharded directory).
	DirShardStats []*stats.Counters
	// DirOccupancy is each shard's request-occupancy histogram: arriving
	// requests bucketed by how many transactions for the same line were
	// already open or queued.
	DirOccupancy [][]uint64
	// Messages is the total fabric traffic.
	Messages uint64
	// Trace is the recorded execution when Config.RecordTrace was set.
	Trace *mem.Execution
	// Timings is the access lifecycle log when Config.RecordTimings was
	// set, ready for conditions.Check / conditions.CheckRefined.
	Timings []conditions.AccessTiming
	// FinalMem is the coherent final memory state (owner copies folded in).
	FinalMem map[mem.Addr]mem.Value
	// FinalRegs is each thread's final register file.
	FinalRegs []([program.NumRegs]mem.Value)
	// Injections is the fault-injection log when Config.Faults was set
	// (nil otherwise); InjectionLog is its canonical rendering, compared
	// byte for byte by the chaos harness's replay check.
	Injections   []faults.Injection
	InjectionLog string
	// Metrics is the finalized observability report when Config.Metrics was
	// set (nil otherwise).
	Metrics *metrics.Report
}

// TotalStall sums a stall counter across processors.
func (r *Result) TotalStall(name string) int64 {
	var n int64
	for _, s := range r.ProcStats {
		n += s.Get(name)
	}
	return n
}

// tracer implements proc.Tracer over a shared execution.
type tracer struct {
	exec *mem.Execution
}

func (t *tracer) Record(a mem.Access, opIndex int) {
	t.exec.AppendAt(a, opIndex)
}

// timingSink implements proc.TimingSink over a shared log.
type timingSink struct {
	log []conditions.AccessTiming
}

func (s *timingSink) RecordTiming(t conditions.AccessTiming) { s.log = append(s.log, t) }

// Machine is one composed system ready to run.
type Machine struct {
	cfg    Config
	engine *sim.Engine
	procs  []*proc.Processor
	caches []*cache.Cache
	dir    *cache.ShardedDirectory
	fabric interconnect.Fabric
	inj    *faults.Injector
	rec    *metrics.Recorder
	trace  *mem.Execution
	times  *timingSink
	prog   *program.Program
}

// New composes a machine for the program.
func New(p *program.Program, cfg Config) *Machine {
	cfg.defaults()
	engine := sim.NewEngine(cfg.MaxTime, cfg.MaxEvents)
	n := p.NumThreads()
	var fabric interconnect.Fabric
	switch cfg.Fabric {
	case FabricBus:
		fabric = interconnect.NewBus(engine, cfg.BusCycle)
	default:
		rng := rand.New(rand.NewSource(cfg.Seed))
		net := interconnect.NewNetwork(engine, cfg.NetLatency, cfg.NetJitter, rng, cfg.FIFO)
		if cfg.Topology != interconnect.TopoFlat {
			// The topology shapes the base fabric, *under* the metrics tap
			// and the fault injector composed below, so both see real routes.
			net.SetTopology(interconnect.NewTopology(cfg.Topology, n, cfg.NetLatency, cfg.RemoteLatency, cfg.ClusterSize))
		}
		fabric = net
	}
	var rec *metrics.Recorder
	if cfg.Metrics {
		// The tap sits under the fault injector: it observes the traffic
		// that actually enters the network (drops invisible, duplicates
		// counted twice — both are the real fabric load).
		rec = metrics.NewRecorder(engine, n)
		fabric = metrics.NewFabricTap(rec, fabric, classifyMsg)
	}
	var inj *faults.Injector
	if cfg.Faults {
		rates := cfg.FaultRates
		if rates.Zero() {
			rates = faults.DefaultRates()
		}
		inj = faults.NewInjector(engine, fabric, cfg.FaultSeed, rates)
		fabric = inj
	}
	dirID := interconnect.NodeID(n)
	init := make(map[mem.Addr]mem.Value)
	for _, a := range p.Addrs() {
		init[a] = 0
	}
	for a, v := range p.Init {
		init[a] = v
	}
	// One message pool per machine: its caches and directory shards run on
	// one goroutine, and machines run concurrently never share records.
	msgs := new(cache.MsgPool)
	dir := cache.NewShardedDirectory(dirID, cfg.DirShards, engine, fabric, msgs, cfg.MemLatency, init)
	dir.SetMetrics(rec)
	if cfg.Faults {
		dir.SetLenient(true)
		// Every processor must fit in the queue or contention alone (no
		// faults) could NACK a request into retry exhaustion.
		dir.SetQueueLimit(max(8, n))
		dir.EnableWatchdog(cfg.RetryTimeout, cfg.WatchdogTimeout)
		// A busy line is not lost while its requester (or the owner it was
		// routed to) is still inside the bounded retransmission schedule.
		dir.SetWatchdogGrace(cache.BackoffBudget(cfg.RetryTimeout, cfg.RetryLimit))
	}
	m := &Machine{cfg: cfg, engine: engine, dir: dir, fabric: fabric, inj: inj, rec: rec, prog: p}
	var tr *tracer
	if cfg.RecordTrace {
		m.trace = mem.NewExecution(n)
		tr = &tracer{exec: m.trace}
	}
	if cfg.RecordTimings {
		m.times = &timingSink{}
	}
	for i := 0; i < n; i++ {
		c := cache.New(interconnect.NodeID(i), engine, fabric, msgs, dirID, cfg.HitLatency)
		c.SetDirShards(cfg.DirShards)
		c.SetMetrics(rec)
		if cfg.Faults {
			c.SetLenient(true)
			c.SetRetry(cfg.RetryTimeout, cfg.RetryLimit)
		}
		m.caches = append(m.caches, c)
		var t proc.Tracer
		if tr != nil {
			t = tr
		}
		pr := proc.New(i, engine, c, p.Threads[i], cfg.Policy, t)
		if m.times != nil {
			pr.SetTimingSink(m.times)
		}
		pr.SetUpdateProtocol(cfg.Protocol == ProtocolUpdate)
		pr.SetMetrics(rec)
		if cfg.Workload != nil {
			pr.SetWorkload(cfg.Workload)
		}
		m.procs = append(m.procs, pr)
	}
	return m
}

// ProtocolFailure wraps a coherence ProtocolError that aborted a run with
// the reproduction context: the failure cycle, the recorded trace so far
// (when Config.RecordTrace was set), and the fault-injection log (when
// Config.Faults was set). It unwraps to the underlying error, so
// errors.Is(err, cache.ErrProtocol) still matches.
type ProtocolFailure struct {
	Err          error
	Cycle        sim.Time
	TraceDump    string
	InjectionLog string
}

// Error implements error: the underlying violation plus the dumps.
func (f *ProtocolFailure) Error() string {
	s := fmt.Sprintf("protocol failure @%d: %v", f.Cycle, f.Err)
	if f.TraceDump != "" {
		s += "\ntrace so far:\n" + f.TraceDump
	}
	if f.InjectionLog != "" {
		s += "injected faults:\n" + f.InjectionLog
	}
	return s
}

// Unwrap implements errors.Is/As chaining.
func (f *ProtocolFailure) Unwrap() error { return f.Err }

// traceDump renders the tail of the recorded execution for failure reports.
func (m *Machine) traceDump() string {
	if m.trace == nil {
		return ""
	}
	const maxDump = 4096
	s := m.trace.String()
	if len(s) > maxDump {
		s = "...\n" + s[len(s)-maxDump:]
	}
	return s
}

// Run executes the program to completion (all threads halted, all
// transactions drained) and returns the result.
func (m *Machine) Run() (*Result, error) {
	remaining := len(m.procs)
	for _, pr := range m.procs {
		pr.Start(func() { remaining-- })
	}
	// Run the event queue dry: processors halt along the way, and trailing
	// coherence traffic (outstanding write performance) still completes.
	if err := m.engine.Run(nil); err != nil {
		if errors.Is(err, cache.ErrProtocol) {
			f := &ProtocolFailure{Err: err, Cycle: m.engine.Now(), TraceDump: m.traceDump()}
			if m.inj != nil {
				f.InjectionLog = m.inj.LogString()
			}
			return nil, f
		}
		return nil, fmt.Errorf("machine: %w (policy %s)", err, m.cfg.Policy)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("machine: %d processor(s) never finished (deadlock or livelock), policy %s", remaining, m.cfg.Policy)
	}
	res := &Result{
		DirStats:      m.dir.Counters(),
		DirShardStats: m.dir.ShardCounters(),
		DirOccupancy:  m.dir.Occupancy(),
		Messages:      m.fabric.Messages(),
		Trace:         m.trace,
		FinalMem:      make(map[mem.Addr]mem.Value),
	}
	if m.times != nil {
		res.Timings = m.times.log
	}
	if m.inj != nil {
		res.Injections = m.inj.Log()
		res.InjectionLog = m.inj.LogString()
	}
	var last sim.Time
	for i, pr := range m.procs {
		ft := pr.FinishTime()
		if ft > last {
			last = ft
		}
		res.ProcFinish = append(res.ProcFinish, ft)
		res.ProcStats = append(res.ProcStats, pr.Stats)
		res.CacheStats = append(res.CacheStats, m.caches[i].Stats)
	}
	res.Cycles = last
	if m.rec != nil {
		res.Metrics = m.rec.Report(res.ProcFinish)
	}
	// Collect the coherent final memory: owner caches override the
	// directory copy.
	for _, a := range m.prog.Addrs() {
		v, _ := m.dir.MemValue(a)
		if o := m.dir.Owner(a); o >= 0 && int(o) < len(m.caches) {
			if cv, st := m.caches[o].Snoop(a); st == cache.Exclusive {
				v = cv
			}
		}
		res.FinalMem[a] = v
	}
	res.FinalRegs = m.finalRegs()
	return res, nil
}

// finalRegs extracts each processor thread's registers. The proc package does
// not expose the thread directly; registers are reconstructed from the trace
// when recorded, otherwise omitted. To keep the common path simple the
// processor exposes them via Registers.
func (m *Machine) finalRegs() []([program.NumRegs]mem.Value) {
	out := make([]([program.NumRegs]mem.Value), len(m.procs))
	for i, pr := range m.procs {
		out[i] = pr.Registers()
	}
	return out
}

// classifyMsg names protocol messages for the metrics fabric tap (injected
// here so internal/metrics never needs to import internal/cache).
func classifyMsg(m interconnect.Message) metrics.MsgInfo {
	msg, ok := m.(*cache.Msg)
	if !ok || msg == nil {
		return metrics.MsgInfo{}
	}
	return metrics.MsgInfo{Class: msg.Kind.String(), Addr: msg.Addr, OK: true}
}

// Run is the one-call convenience: compose and run.
func Run(p *program.Program, cfg Config) (*Result, error) {
	return New(p, cfg).Run()
}
