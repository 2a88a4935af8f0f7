package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"weakorder/internal/faults"
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/proc"
	"weakorder/internal/program"
	"weakorder/internal/workload"
	"weakorder/internal/workload/openloop"
	"weakorder/internal/workload/spec"
)

// timedFingerprintFile holds one SHA-256 over every run that
// TestTimedRunFingerprint makes. It changes only when a change alters the
// event stream a timed run dispatches: the cycle a message arrives, the order
// two events share a cycle in, a counter, a fault drawn, a value read.
const timedFingerprintFile = "testdata/timed_fingerprint.txt"

// fingerprintCase is one timed run of the fingerprint matrix.
type fingerprintCase struct {
	name string
	prog *program.Program
	cfg  Config
}

var fingerprintPolicies = []proc.Policy{
	proc.PolicySC, proc.PolicyWODef1, proc.PolicyWODef2, proc.PolicyWODef2DRF1, proc.PolicyWODef2NoReserve,
}

// fingerprintCases spans the configurations the machine tests already run:
// every policy on both fabrics, jitter with per-link FIFO on and off, the
// write-update protocol, shard counts 1 and 4, every topology, fault
// injection at several seeds and rates (retries, duplicates, delays and
// reorderings all fire), and one open-loop spec run. Sizes stay small so the
// whole matrix runs in seconds.
func fingerprintCases(t *testing.T) []fingerprintCase {
	t.Helper()
	var cs []fingerprintCase
	add := func(name string, p *program.Program, cfg Config) {
		cs = append(cs, fingerprintCase{name: name, prog: p, cfg: cfg})
	}
	lock := func() *program.Program { return workload.Lock(4, 2, 4, 6, workload.SpinSync) }
	for _, pol := range fingerprintPolicies {
		cfg := NewConfig(pol)
		cfg.RecordTrace = true
		cfg.RecordTimings = true
		cfg.Metrics = true
		add("network/"+pol.String(), lock(), cfg)

		cfg = NewConfig(pol)
		cfg.Fabric = FabricBus
		cfg.RecordTrace = true
		cfg.Metrics = true
		add("bus/"+pol.String(), workload.Lock(3, 2, 4, 4, workload.SpinSync), cfg)

		for _, fifo := range []bool{true, false} {
			cfg = NewConfig(pol)
			cfg.NetJitter = 9
			cfg.Seed = 3
			cfg.FIFO = fifo
			cfg.RecordTrace = true
			add(fmt.Sprintf("jitter/fifo=%v/%s", fifo, pol), workload.ProducerConsumer(5, 2), cfg)
		}

		cfg = NewConfig(pol)
		cfg.Protocol = ProtocolUpdate
		cfg.RecordTrace = true
		cfg.Metrics = true
		add("update/"+pol.String(), workload.Lock(3, 3, 4, 4, workload.SpinSync), cfg)

		for fab, fabName := range []string{FabricNetwork: "network", FabricBus: "bus"} {
			for _, proto := range []ProtocolKind{ProtocolInvalidate, ProtocolUpdate} {
				cfg = NewConfig(pol)
				cfg.Fabric = FabricKind(fab)
				cfg.Protocol = proto
				cfg.NetJitter = 3
				cfg.FIFO = false
				cfg.Faults = true
				cfg.FaultSeed = 5
				cfg.RecordTrace = true
				add(fmt.Sprintf("faults/%s/%s/%s", fabName, proto, pol), lock(), cfg)
			}
		}
	}
	heavy := []faults.Rates{
		{Drop: 0.2, Dup: 0.1, Delay: 0.1, Reorder: 0.05, MaxDelay: 16},
		{Drop: 0.3, Dup: 0.2, Delay: 0.1, Reorder: 0.1, MaxDelay: 40},
	}
	for i, rates := range heavy {
		for _, proto := range []ProtocolKind{ProtocolInvalidate, ProtocolUpdate} {
			cfg := NewConfig(proc.PolicyWODef2)
			cfg.Protocol = proto
			cfg.NetJitter = 3
			cfg.FIFO = false
			cfg.Faults = true
			cfg.FaultSeed = 5
			cfg.FaultRates = rates
			cfg.Metrics = true
			add(fmt.Sprintf("faults/heavy=%d/%s", i, proto), workload.Lock(8, 3, 4, 6, workload.SpinSync), cfg)
		}
	}
	for seed := int64(0); seed < 2; seed++ {
		cfg := NewConfig(proc.PolicyWODef2)
		cfg.Protocol = ProtocolUpdate
		cfg.NetJitter = 9
		cfg.FIFO = false
		cfg.Seed = seed
		cfg.RecordTrace = true
		add(fmt.Sprintf("update/jitter/seed=%d", seed), workload.ProducerConsumer(5, 2), cfg)
	}
	for _, shards := range []int{1, 4} {
		cfg := NewConfig(proc.PolicyWODef2)
		cfg.DirShards = shards
		cfg.NetJitter = 5
		cfg.Seed = 11
		cfg.RecordTrace = true
		cfg.Metrics = true
		add(fmt.Sprintf("shards=%d", shards), lock(), cfg)

		for _, fseed := range []int64{7, 12} {
			cfg := NewConfig(proc.PolicyWODef2)
			cfg.DirShards = shards
			cfg.Faults = true
			cfg.FaultSeed = fseed
			cfg.RecordTrace = true
			add(fmt.Sprintf("faults/shards=%d/seed=%d", shards, fseed), lock(), cfg)
		}
	}
	for _, topo := range []interconnect.TopologyKind{interconnect.TopoFlat, interconnect.TopoDanceHall, interconnect.TopoClusters} {
		cfg := NewConfig(proc.PolicyWODef2)
		cfg.Topology = topo
		cfg.ClusterSize = 2
		cfg.RemoteLatency = 25
		cfg.NetJitter = 5
		cfg.Seed = 7
		cfg.Faults = true
		cfg.FaultSeed = 3
		cfg.Metrics = true
		add("topology/"+topo.String(), lock(), cfg)
	}
	cfg := NewConfig(proc.PolicyWODef2)
	cfg.DirShards = 4
	cfg.Topology = interconnect.TopoClusters
	cfg.ClusterSize = 4
	cfg.RecordTrace = true
	add("topology/clusters/shards=4", workload.Lock(8, 1, 4, 8, workload.SpinSync), cfg)

	cfg = NewConfig(proc.PolicyWODef2)
	cfg.Metrics = true
	cfg.NetJitter = 4
	cfg.Faults = true
	cfg.FaultSeed = 7
	add("faults/fig3/metrics", workload.Fig3N(2, 3, 20), cfg)

	s := &spec.Spec{
		SpecVersion: spec.Version,
		Name:        "fingerprint",
		Procs:       4,
		Seed:        7,
		Phases: []spec.Phase{
			{Duration: 3000, Rate: 5, Scenario: spec.ScenarioMix, Work: 3},
			{Duration: 3000, Rate: 5, Scenario: spec.ScenarioLock, Work: 2},
			{Duration: 3000, Rate: 3, Scenario: spec.ScenarioBarrier},
			{Duration: 3000, Rate: 3, Scenario: spec.ScenarioProdCons},
		},
	}
	prog, err := openloop.Program(s)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := openloop.NewGenerator(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg = NewConfig(proc.PolicyWODef2)
	cfg.Workload = openloop.Compile(gen)
	cfg.Metrics = true
	add("openloop/spec", prog, cfg)
	return cs
}

// writeRunFingerprint renders a run for the timed fingerprint: runFingerprint
// plus the whole final memory and register files, per-processor finish times,
// timings, the injection log, and every counter bag, directory shards included.
func writeRunFingerprint(t *testing.T, h hash.Hash, r *Result) {
	t.Helper()
	h.Write(runFingerprint(t, r))
	addrs := make([]mem.Addr, 0, len(r.FinalMem))
	for a := range r.FinalMem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		fmt.Fprintf(h, "final[%d]=%d\n", a, r.FinalMem[a])
	}
	for i, regs := range r.FinalRegs {
		fmt.Fprintf(h, "P%d regs=%v finish=%d\n", i, regs, r.ProcFinish[i])
	}
	for _, tm := range r.Timings {
		fmt.Fprintf(h, "timing %+v\n", tm)
	}
	h.Write([]byte(r.InjectionLog))
	for i, s := range r.ProcStats {
		fmt.Fprintf(h, "proc %d: %s\n", i, s)
	}
	for i, s := range r.CacheStats {
		fmt.Fprintf(h, "cache %d: %s\n", i, s)
	}
	fmt.Fprintf(h, "dir: %s\n", r.DirStats)
	for i, s := range r.DirShardStats {
		fmt.Fprintf(h, "shard %d: %s occupancy=%v\n", i, s, r.DirOccupancy[i])
	}
}

// TestTimedRunFingerprint hashes every observable of a matrix of timed runs
// into one digest pinned in testdata: representation changes to the engine,
// the processors, the caches, the directory or the fabrics must leave every
// run's event stream exactly as it was. On a mismatch the per-case digests
// are logged, so a run of the same test at an older commit locates the case
// that moved.
func TestTimedRunFingerprint(t *testing.T) {
	h := sha256.New()
	var perCase []string
	for _, c := range fingerprintCases(t) {
		ch := sha256.New()
		fmt.Fprintf(ch, "case %s\n", c.name)
		r, err := Run(c.prog, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		writeRunFingerprint(t, ch, r)
		sum := ch.Sum(nil)
		h.Write(sum)
		perCase = append(perCase, fmt.Sprintf("%s %x", c.name, sum[:8]))
	}
	got := hex.EncodeToString(h.Sum(nil))
	data, err := os.ReadFile(filepath.FromSlash(timedFingerprintFile))
	if err != nil {
		t.Fatalf("%v (digest over %d runs: %s)", err, len(perCase), got)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("timed-run fingerprint over %d runs = %s, want %s (%s); per-case digests:\n%s",
			len(perCase), got, want, timedFingerprintFile, strings.Join(perCase, "\n"))
	}
}
