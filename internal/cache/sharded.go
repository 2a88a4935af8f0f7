package cache

import (
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// Directory is the home-side interface the machine composes against: either a
// single *DirShard owning the whole address space or a *ShardedDirectory
// spreading it over several home nodes. Everything behind it is the same
// unmodified protocol engine; the interface only exists so the machine's
// wiring, fault plumbing, and final-state collection are shard-count
// agnostic.
type Directory interface {
	SetLenient(on bool)
	SetQueueLimit(n int)
	EnableWatchdog(interval, timeout sim.Time)
	SetWatchdogGrace(grace sim.Time)
	SetMetrics(rec *metrics.Recorder)
	// MemValue returns the home memory value for final-state collection.
	MemValue(a mem.Addr) (mem.Value, bool)
	// Owner returns the current exclusive owner of a line (-1 none).
	Owner(a mem.Addr) interconnect.NodeID
	// Counters returns the protocol counters aggregated over all shards; for
	// a single shard it is that shard's live bag.
	Counters() *stats.Counters
	// ShardCounters returns each shard's own counter bag, in shard order.
	ShardCounters() []*stats.Counters
	// Shards returns the shard count.
	Shards() int
	// Occupancy returns each shard's request-occupancy histogram.
	Occupancy() [][]uint64
}

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

// ShardedDirectory is N DirShards behind one Directory: shard i sits at
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

// SetLenient implements Directory.
func (s *ShardedDirectory) SetLenient(on bool) {
	for _, d := range s.shards {
		d.SetLenient(on)
	}
}

// SetQueueLimit implements Directory.
func (s *ShardedDirectory) SetQueueLimit(n int) {
	for _, d := range s.shards {
		d.SetQueueLimit(n)
	}
}

// EnableWatchdog implements Directory: every shard runs its own watchdog over
// its own lines.
func (s *ShardedDirectory) EnableWatchdog(interval, timeout sim.Time) {
	for _, d := range s.shards {
		d.EnableWatchdog(interval, timeout)
	}
}

// SetWatchdogGrace implements Directory.
func (s *ShardedDirectory) SetWatchdogGrace(grace sim.Time) {
	for _, d := range s.shards {
		d.SetWatchdogGrace(grace)
	}
}

// SetMetrics implements Directory.
func (s *ShardedDirectory) SetMetrics(rec *metrics.Recorder) {
	for _, d := range s.shards {
		d.SetMetrics(rec)
	}
}

// MemValue implements Directory.
func (s *ShardedDirectory) MemValue(a mem.Addr) (mem.Value, bool) {
	return s.shardFor(a).MemValue(a)
}

// Owner implements Directory.
func (s *ShardedDirectory) Owner(a mem.Addr) interconnect.NodeID {
	return s.shardFor(a).Owner(a)
}

// Counters implements Directory: a fresh bag merging every shard in shard
// order (deterministic registration order regardless of per-shard traffic).
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

// ShardCounters implements Directory.
func (s *ShardedDirectory) ShardCounters() []*stats.Counters {
	out := make([]*stats.Counters, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.Stats
	}
	return out
}

// Shards implements Directory.
func (s *ShardedDirectory) Shards() int { return len(s.shards) }

// Occupancy implements Directory.
func (s *ShardedDirectory) Occupancy() [][]uint64 {
	out := make([][]uint64, len(s.shards))
	for i, d := range s.shards {
		out[i] = d.Occupancy()[0]
	}
	return out
}
