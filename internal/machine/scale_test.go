package machine

import (
	"bytes"
	"fmt"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/proc"
	"weakorder/internal/sim"
	"weakorder/internal/trace"
	"weakorder/internal/workload"
)

// TestShardOfPartition: the address→shard mapping is a partition — every
// address lands in exactly one in-range shard, and the mapping is a pure
// function of (address, shard count).
func TestShardOfPartition(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		counts := make([]int, shards)
		for a := mem.Addr(0); a < 1000; a++ {
			s := cache.ShardOf(a, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", a, shards, s)
			}
			if again := cache.ShardOf(a, shards); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", a, shards, s, again)
			}
			counts[s]++
		}
		for s, n := range counts {
			if n == 0 {
				t.Errorf("shards=%d: shard %d owns no address in 0..999", shards, s)
			}
		}
	}
}

// runFingerprint renders everything observable about a run that the shard
// count and the machine's internal representation must not change:
// completion time, traffic,
// final memory, the recorded trace, the attribution tables, and the exported
// timeline, all as one byte string.
func runFingerprint(t *testing.T, r *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "cycles=%d messages=%d\n", r.Cycles, r.Messages)
	for _, a := range []mem.Addr{workload.CtrAddr(), workload.XAddr()} {
		fmt.Fprintf(&b, "mem[%d]=%d\n", a, r.FinalMem[a])
	}
	if r.Trace != nil {
		b.WriteString(r.Trace.String())
	}
	if r.Metrics != nil {
		for _, tbl := range r.Metrics.Tables() {
			b.WriteString(tbl.String())
		}
		if err := r.Metrics.WriteTimeline(&b, "scale_test"); err != nil {
			t.Fatalf("WriteTimeline: %v", err)
		}
	}
	return b.Bytes()
}

// TestShardCountInvariance: a fault-free run's entire observable behavior —
// outcomes, cycle counts, message counts, trace, attribution, and the
// rendered timeline — is byte-identical at every directory shard count.
// Sharding only moves lines to different home nodes; it must never reorder
// the event stream.
func TestShardCountInvariance(t *testing.T) {
	progs := map[string]func() *Result{}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		progs[fmt.Sprintf("shards=%d", shards)] = func() *Result {
			p := workload.Lock(4, 2, 4, 6, workload.SpinSync)
			cfg := NewConfig(proc.PolicyWODef2)
			cfg.DirShards = shards
			cfg.RecordTrace = true
			cfg.Metrics = true
			r, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return r
		}
	}
	base := progs["shards=1"]()
	want := runFingerprint(t, base)
	for _, shards := range []int{2, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		r := progs[name]()
		if got := runFingerprint(t, r); !bytes.Equal(got, want) {
			t.Errorf("%s: fingerprint differs from shards=1\nshards=1:\n%s\n%s:\n%s", name, want, name, got)
		}
		if len(r.DirShardStats) != shards {
			t.Errorf("%s: %d shard stat bags", name, len(r.DirShardStats))
		}
		if len(r.DirOccupancy) != shards {
			t.Errorf("%s: %d occupancy histograms", name, len(r.DirOccupancy))
		}
		// The aggregate directory counters are exactly the sum of the
		// per-shard bags.
		for _, n := range r.DirStats.Names() {
			var sum int64
			for _, s := range r.DirShardStats {
				sum += s.Get(n)
			}
			if sum != r.DirStats.Get(n) {
				t.Errorf("%s: counter %s: aggregate %d != shard sum %d", name, n, r.DirStats.Get(n), sum)
			}
		}
		// Both lock lines map somewhere; with 2+ shards the workload's two hot
		// addresses must not all collapse onto shard 0 by accident of the test.
		var active int
		for _, s := range r.DirShardStats {
			if s.Get("gets")+s.Get("getx") > 0 {
				active++
			}
		}
		if active < 2 {
			t.Errorf("%s: only %d shard(s) saw traffic; partitioning not exercised", name, active)
		}
	}
}

// TestShardedFaultTolerance: with the fault injector on, each shard runs its
// own queue and watchdog; the run must still complete correctly at several
// shard counts, with the injector actually perturbing traffic.
func TestShardedFaultTolerance(t *testing.T) {
	for _, shards := range []int{1, 4} {
		p := workload.Lock(4, 2, 4, 6, workload.SpinSync)
		cfg := NewConfig(proc.PolicyWODef2)
		cfg.DirShards = shards
		cfg.Faults = true
		cfg.FaultSeed = 12
		r, err := Run(p, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got, want := r.FinalMem[workload.CtrAddr()], workload.LockTotal(4, 2); got != want {
			t.Errorf("shards=%d: counter = %d, want %d", shards, got, want)
		}
		if len(r.Injections) == 0 {
			t.Errorf("shards=%d: injector never fired; the scenario is not exercising fault handling", shards)
		}
	}
}

// TestTopologyDeterminism: every topology produces correct outcomes, and a
// repeated run — including under jitter and fault injection — is
// byte-identical, fault log and all.
func TestTopologyDeterminism(t *testing.T) {
	for _, topo := range []interconnect.TopologyKind{interconnect.TopoFlat, interconnect.TopoDanceHall, interconnect.TopoClusters} {
		run := func() *Result {
			p := workload.Lock(4, 2, 4, 6, workload.SpinSync)
			cfg := NewConfig(proc.PolicyWODef2)
			cfg.Topology = topo
			cfg.ClusterSize = 2
			cfg.RemoteLatency = 25
			cfg.NetJitter = 5
			cfg.Seed = 7
			cfg.Faults = true
			cfg.FaultSeed = 3
			r, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", topo, err)
			}
			return r
		}
		a, b := run(), run()
		if got, want := a.FinalMem[workload.CtrAddr()], workload.LockTotal(4, 2); got != want {
			t.Errorf("%s: counter = %d, want %d", topo, got, want)
		}
		if a.Cycles != b.Cycles || a.Messages != b.Messages || a.InjectionLog != b.InjectionLog {
			t.Errorf("%s: nondeterministic repeat: (%d,%d) vs (%d,%d), logs equal=%v",
				topo, a.Cycles, a.Messages, b.Cycles, b.Messages, a.InjectionLog == b.InjectionLog)
		}
	}
}

// TestTopologyLatencyOrdering: remote hops cost cycles — a cross-cluster
// workload on the clusters topology cannot beat the flat network, and raising
// the remote latency cannot make it faster.
func TestTopologyLatencyOrdering(t *testing.T) {
	run := func(topo interconnect.TopologyKind, remote int) *Result {
		p := workload.ProducerConsumer(4, 3)
		cfg := NewConfig(proc.PolicyWODef2)
		cfg.Topology = topo
		cfg.ClusterSize = 2
		cfg.RemoteLatency = sim.Time(remote)
		r, err := Run(p, cfg)
		if err != nil {
			t.Fatalf("%s/remote=%d: %v", topo, remote, err)
		}
		return r
	}
	flat := run(interconnect.TopoFlat, 0)
	near := run(interconnect.TopoClusters, 10)
	far := run(interconnect.TopoClusters, 60)
	if near.Cycles < flat.Cycles {
		t.Errorf("clusters (remote=10) finished in %d < flat %d", near.Cycles, flat.Cycles)
	}
	if far.Cycles < near.Cycles {
		t.Errorf("clusters remote=60 finished in %d < remote=10 %d", far.Cycles, near.Cycles)
	}
}

// TestBigP: a 64-processor run — the scale target of the sharded directory —
// completes correctly with sharding, a non-flat topology, tracing, and
// metrics all on, and the cycle attribution still closes: every processor's
// class buckets sum exactly to its finish time.
func TestBigP(t *testing.T) {
	const nproc = 64
	p := workload.Lock(nproc, 1, 4, 8, workload.SpinSync)
	cfg := NewConfig(proc.PolicyWODef2)
	cfg.DirShards = 8
	cfg.Topology = interconnect.TopoClusters
	cfg.ClusterSize = 8
	cfg.RecordTrace = true
	cfg.Metrics = true
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.FinalMem[workload.CtrAddr()], workload.LockTotal(nproc, 1); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if len(r.ProcFinish) != nproc || len(r.Metrics.Procs) != nproc {
		t.Fatalf("result shape: %d finishes, %d metric tracks", len(r.ProcFinish), len(r.Metrics.Procs))
	}
	for _, pc := range r.Metrics.Procs {
		if pc.Total() != int64(pc.Finish) {
			t.Errorf("proc %d: attributed %d cycles, finish %d — attribution does not close", pc.Proc, pc.Total(), pc.Finish)
		}
	}
	// The timeline for a 64-track run must still validate.
	var b bytes.Buffer
	if err := r.Metrics.WriteTimeline(&b, "p64"); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateTimeline(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	// And the 64-thread trace must survive the JSON round trip (the decoder's
	// MaxProcs bound sits well above this).
	var tb bytes.Buffer
	if err := trace.Write(&tb, r.Trace, map[mem.Addr]mem.Value{}, nil); err != nil {
		t.Fatal(err)
	}
	back, _, _, err := trace.Read(&tb)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != r.Trace.String() {
		t.Error("trace did not round-trip byte-identically at 64 threads")
	}
}
