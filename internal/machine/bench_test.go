package machine

import (
	"fmt"
	"testing"

	"weakorder/internal/interconnect"
	"weakorder/internal/proc"
	"weakorder/internal/workload"
)

// benchCase is one point on the scaling grid: processor count, directory
// shard count, and topology. The workload is the E13
// capacity kernel — every processor contends for one lock and does a little
// local work — so throughput is dominated by the machine core (scheduler,
// protocol, interconnect), not by workload construction.
type benchCase struct {
	procs    int
	shards   int
	topology interconnect.TopologyKind
}

func (c benchCase) name() string {
	return fmt.Sprintf("p%d/shards%d/%s", c.procs, c.shards, c.topology)
}

// BenchmarkMachineRun sweeps the big-P configuration surface and reports
// simulated cycles per wall-clock second (simcycles/sec), the figure of
// merit BENCH_machine.json tracks.
func BenchmarkMachineRun(b *testing.B) {
	cases := []benchCase{
		{procs: 8, shards: 1, topology: interconnect.TopoFlat},
		{procs: 16, shards: 1, topology: interconnect.TopoFlat},
		{procs: 64, shards: 1, topology: interconnect.TopoFlat},
		{procs: 64, shards: 4, topology: interconnect.TopoFlat},
		{procs: 64, shards: 4, topology: interconnect.TopoDanceHall},
		{procs: 64, shards: 8, topology: interconnect.TopoClusters},
	}
	for _, c := range cases {
		b.Run(c.name(), func(b *testing.B) {
			prog := workload.Lock(c.procs, 2, 10, 10, workload.SpinSync)
			cfg := NewConfig(proc.PolicyWODef2)
			cfg.DirShards = c.shards
			cfg.Topology = c.topology
			var cycles int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += int64(res.Cycles)
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cycles)/secs, "simcycles/sec")
			}
		})
	}
}
