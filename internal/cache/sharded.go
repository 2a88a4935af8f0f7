package cache

import (
	"slices"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// ShardOf is the canonical deterministic address→shard mapping: the address's
// integer value (exactly what AppendKey serializes into state keys) modulo
// the shard count. Every layer — the machine's wiring, the cache's request
// routing, and the partitioning tests — must use this one function, so an
// address has exactly one home shard by construction.
func ShardOf(a mem.Addr, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(uint64(a) % uint64(shards))
}

// ShardedDirectory is the home side the machine composes against: N
// DirShards, one when the directory is not sharded, where shard i sits at
// fabric node base+i and owns every address with ShardOf(a, N) == i. Each
// shard keeps its own request queues, watchdog, stats, and occupancy
// histogram; there is no shared state between shards, so a fault-free
// machine's event stream is independent of the shard count (messages only
// change their destination node, never their content, count, or timing).
type ShardedDirectory struct {
	base   interconnect.NodeID
	shards []*DirShard
}

// NewShardedDirectory builds n shards at fabric nodes base..base+n-1,
// splitting init by ShardOf. Every shard uses the machine's message pool.
func NewShardedDirectory(base interconnect.NodeID, n int, engine *sim.Engine, fabric interconnect.Fabric, msgs *MsgPool, memLat sim.Time, init map[mem.Addr]mem.Value) *ShardedDirectory {
	if n < 1 {
		n = 1
	}
	s := &ShardedDirectory{base: base, shards: make([]*DirShard, n)}
	for i := 0; i < n; i++ {
		sub := make(map[mem.Addr]mem.Value)
		for a, v := range init {
			if ShardOf(a, n) == i {
				sub[a] = v
			}
		}
		s.shards[i] = NewDirectory(base+interconnect.NodeID(i), engine, fabric, msgs, memLat, sub)
	}
	return s
}

// Shard returns shard i (for tests poking at per-shard state).
func (s *ShardedDirectory) Shard(i int) *DirShard { return s.shards[i] }

// shardFor routes an address to its home shard.
func (s *ShardedDirectory) shardFor(a mem.Addr) *DirShard {
	return s.shards[ShardOf(a, len(s.shards))]
}

// SetLenient sets every shard lenient (see DirShard.SetLenient).
func (s *ShardedDirectory) SetLenient(on bool) {
	for _, d := range s.shards {
		d.SetLenient(on)
	}
}

// SetQueueLimit bounds every shard's request queue.
func (s *ShardedDirectory) SetQueueLimit(n int) {
	for _, d := range s.shards {
		d.SetQueueLimit(n)
	}
}

// EnableWatchdog starts a watchdog on every shard, over its own lines.
func (s *ShardedDirectory) EnableWatchdog(interval, timeout sim.Time) {
	for _, d := range s.shards {
		d.EnableWatchdog(interval, timeout)
	}
}

// SetWatchdogGrace sets every shard's watchdog grace.
func (s *ShardedDirectory) SetWatchdogGrace(grace sim.Time) {
	for _, d := range s.shards {
		d.SetWatchdogGrace(grace)
	}
}

// SetMetrics attaches every shard to the metrics recorder.
func (s *ShardedDirectory) SetMetrics(rec *metrics.Recorder) {
	for _, d := range s.shards {
		d.SetMetrics(rec)
	}
}

// MemValue returns the home memory value for final-state collection.
func (s *ShardedDirectory) MemValue(a mem.Addr) (mem.Value, bool) {
	return s.shardFor(a).MemValue(a)
}

// Owner returns the current exclusive owner of a line (-1 none).
func (s *ShardedDirectory) Owner(a mem.Addr) interconnect.NodeID {
	return s.shardFor(a).Owner(a)
}

// Counters returns the protocol counters aggregated over all shards: a lone
// shard's live bag, or a fresh bag merging every shard in shard order
// (deterministic registration order regardless of per-shard traffic).
func (s *ShardedDirectory) Counters() *stats.Counters {
	if len(s.shards) == 1 {
		return s.shards[0].Stats
	}
	agg := stats.NewCounters()
	for _, d := range s.shards {
		agg.Merge(d.Stats)
	}
	return agg
}

// ShardCounters returns each shard's own counter bag, in shard order.
func (s *ShardedDirectory) ShardCounters() []*stats.Counters {
	out := make([]*stats.Counters, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.Stats
	}
	return out
}

// Occupancy returns each shard's request-occupancy histogram.
func (s *ShardedDirectory) Occupancy() [][]uint64 {
	out := make([][]uint64, len(s.shards))
	for i, d := range s.shards {
		out[i] = slices.Clone(d.occ[:])
	}
	return out
}
