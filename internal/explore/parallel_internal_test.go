package explore

// White-box tests for the parallel kernel's building blocks — the
// work-stealing deque and the striped visited store — plus regression
// coverage for the wide-state (>64 enabled steps) expansion path and the
// visited-store pre-sizing benchmark.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"weakorder/internal/mem"
)

func TestWSDequeOrder(t *testing.T) {
	d := &wsDeque{}
	mk := func(i int) workItem { return workItem{sleep: []Step{{Proc: i}}} }
	id := func(it workItem) int { return it.sleep[0].Proc }
	for i := 0; i < 5; i++ {
		d.push(mk(i))
	}
	if it, ok := d.pop(); !ok || id(it) != 4 {
		t.Fatalf("pop: got %v/%v, want item 4 (LIFO owner side)", it, ok)
	}
	if it, ok := d.steal(); !ok || id(it) != 0 {
		t.Fatalf("steal: got %v/%v, want item 0 (FIFO thief side)", it, ok)
	}
	if it, ok := d.steal(); !ok || id(it) != 1 {
		t.Fatalf("steal: got %v/%v, want item 1", it, ok)
	}
	if it, ok := d.pop(); !ok || id(it) != 3 {
		t.Fatalf("pop: got %v/%v, want item 3", it, ok)
	}
	if it, ok := d.pop(); !ok || id(it) != 2 {
		t.Fatalf("pop: got %v/%v, want item 2", it, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque succeeded")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque succeeded")
	}
	if d.size.Load() != 0 {
		t.Fatalf("empty deque reports size %d", d.size.Load())
	}
	// Steal enough to trigger head compaction and verify order survives it.
	for i := 0; i < 100; i++ {
		d.push(mk(i))
	}
	for i := 0; i < 80; i++ {
		if it, ok := d.steal(); !ok || id(it) != i {
			t.Fatalf("steal %d across compaction: got %v/%v", i, it, ok)
		}
	}
	for i := 99; i >= 80; i-- {
		if it, ok := d.pop(); !ok || id(it) != i {
			t.Fatalf("pop %d across compaction: got %v/%v", i, it, ok)
		}
	}
}

func TestStripedVisitedMonotonic(t *testing.T) {
	for _, fullKeys := range []bool{false, true} {
		t.Run(fmt.Sprintf("fullKeys=%v", fullKeys), func(t *testing.T) {
			v := newStripedVisited(fullKeys, 100)
			key := []byte("state-a")
			all := maskAll(4)
			todo, isNew, over := v.visit(key, all, 0b1100)
			if over || !isNew || todo != 0b0011 {
				t.Fatalf("first visit: todo=%04b isNew=%v over=%v, want 0011 true false", todo, isNew, over)
			}
			// Revisit with a different skip: the steps stored as skipped but
			// expandable now come back, and the stored mask shrinks to the
			// intersection.
			todo, isNew, over = v.visit(key, all, 0b1010)
			if over || isNew || todo != 0b0100 {
				t.Fatalf("revisit: todo=%04b isNew=%v over=%v, want 0100 false false", todo, isNew, over)
			}
			// The same revisit again: nothing left to hand out.
			if todo, _, _ = v.visit(key, all, 0b1010); todo != 0 {
				t.Fatalf("repeated revisit handed out %04b twice", todo)
			}
			// A sleep-free revisit drains the rest; the mask can only shrink.
			if todo, _, _ = v.visit(key, all, 0); todo != 0b1000 {
				t.Fatalf("final revisit: todo=%04b, want 1000", todo)
			}
			if todo, _, _ = v.visit(key, all, 0); todo != 0 {
				t.Fatalf("drained state handed out %04b", todo)
			}

			// Budget: reservations, not map sizes, are what the budget counts,
			// so exactly budget distinct states commit at any race outcome.
			v2 := newStripedVisited(fullKeys, 2)
			for i := 0; i < 2; i++ {
				if _, _, over := v2.visit([]byte{byte(i)}, 1, 0); over {
					t.Fatalf("state %d tripped a budget of 2", i)
				}
			}
			if _, _, over := v2.visit([]byte{9}, 1, 0); !over {
				t.Fatal("third distinct state did not trip a budget of 2")
			}
			if _, isNew, over := v2.visit([]byte{1}, 1, 0); over || isNew {
				t.Fatal("revisit of a committed state tripped the budget")
			}
		})
	}
}

// fanSystem is a two-level tree: the root offers width one-shot opaque steps,
// each leading to a distinct terminal state. With width > 64 it regression-
// tests the wide-state path: every step past index 63 must still be expanded
// (the packed masks cannot describe it), serial and parallel alike.
type fanSystem struct {
	width  int
	picked int // -1 at the root
}

func (f *fanSystem) Name() string { return "fan" }

func (f *fanSystem) Clone(TransitionSystem) TransitionSystem { c := *f; return &c }

func (f *fanSystem) Steps(steps []Step) []Step {
	if f.picked >= 0 {
		return steps
	}
	for i := 0; i < f.width; i++ {
		steps = append(steps, Step{Proc: i, Info: Info{Agent: i, Opaque: true}})
	}
	return steps
}

func (f *fanSystem) Apply(t Step) error { f.picked = t.Proc; return nil }

func (f *fanSystem) Done() bool { return f.picked >= 0 }

func (f *fanSystem) AppendKey(key []byte) []byte {
	return binary.AppendVarint(key, int64(f.picked))
}

func (f *fanSystem) Prune() bool { return false }

func (f *fanSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	for i := 0; i < f.width; i++ {
		buf = append(buf, AgentFootprints{Future: Footprint{Opaque: true}})
	}
	return buf
}

func TestManyStepsFullExpansion(t *testing.T) {
	const width = 70
	for _, workers := range []int{1, 3} {
		for _, fullExpl := range []bool{false, true} {
			x := &Explorer{Workers: workers, FullExploration: fullExpl}
			finals := 0
			st, err := x.Run(&fanSystem{width: width, picked: -1}, func(TransitionSystem) bool {
				finals++
				return true
			})
			if err != nil {
				t.Fatalf("workers=%d fullExpl=%v: %v", workers, fullExpl, err)
			}
			if st.States != width+1 || st.Finals != width || st.Transitions != width || finals != width {
				t.Fatalf("workers=%d fullExpl=%v: got %d states / %d transitions / %d finals (%d delivered), want %d/%d/%d",
					workers, fullExpl, st.States, st.Transitions, st.Finals, finals, width+1, width, width)
			}
		}
	}
}

// forkSystem is a chain of n single-step states ending in a fork into two
// terminal states.
type forkSystem struct {
	n, depth int
	picked   int // -1 before the fork
}

func (f *forkSystem) Name() string { return "fork" }

func (f *forkSystem) Clone(TransitionSystem) TransitionSystem { c := *f; return &c }

func (f *forkSystem) Steps(steps []Step) []Step {
	switch {
	case f.depth < f.n:
		steps = append(steps, Step{Info: Info{Opaque: true}})
	case f.picked < 0:
		steps = append(steps, Step{Proc: 0, Info: Info{Opaque: true}}, Step{Proc: 1, Info: Info{Agent: 1, Opaque: true}})
	}
	return steps
}

func (f *forkSystem) Apply(t Step) error {
	if f.depth < f.n {
		f.depth++
	} else {
		f.picked = t.Proc
	}
	return nil
}

func (f *forkSystem) Done() bool { return f.picked >= 0 }

func (f *forkSystem) AppendKey(key []byte) []byte {
	return binary.AppendVarint(binary.AppendUvarint(key, uint64(f.depth)), int64(f.picked))
}

func (f *forkSystem) Prune() bool { return false }

func (f *forkSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	return append(buf, AgentFootprints{Future: Footprint{Opaque: true}}, AgentFootprints{Future: Footprint{Opaque: true}})
}

// TestEarlyStopWakesParkedWorkers pins an early stop at every width: the
// callback returns false on the first terminal state, and Run returns having
// delivered that one. Above width 1 every other worker is parked while one
// walks the chain, and the fork publishes the second terminal state just
// before the inline first one stops the run; left unprocessed, that item
// keeps the pending count above zero, so only the stop wakes the parked
// workers.
func TestEarlyStopWakesParkedWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for i := 0; i < 50; i++ {
			calls := 0
			st, err := (&Explorer{Workers: workers}).Run(&forkSystem{n: 100, picked: -1}, func(TransitionSystem) bool {
				calls++
				return false
			})
			if err != nil || calls != 1 || st.Finals != 1 {
				t.Fatalf("workers=%d: %d deliveries, %d finals, err %v; want one delivery and no error", workers, calls, st.Finals, err)
			}
		}
	}
}

// countSystem is a grid of independent per-agent counters: agents distinct,
// addresses distinct, so full exploration visits (limit+1)^agents states —
// a pure visited-store stress with trivial per-state work.
type countSystem struct {
	limit int
	vals  []int
}

func (c *countSystem) Name() string { return "count" }

func (c *countSystem) Clone(reuse TransitionSystem) TransitionSystem {
	d, _ := reuse.(*countSystem)
	if d == nil {
		d = &countSystem{}
	}
	d.limit, d.vals = c.limit, append(d.vals[:0], c.vals...)
	return d
}

func (c *countSystem) Steps(steps []Step) []Step {
	for i, v := range c.vals {
		if v < c.limit {
			steps = append(steps, Step{
				Proc: i,
				Info: Info{Agent: i, Addr: mem.Addr(i), Op: mem.OpWrite, AddrBit: uint64(1) << i},
			})
		}
	}
	return steps
}

func (c *countSystem) Apply(t Step) error { c.vals[t.Proc]++; return nil }

func (c *countSystem) Done() bool {
	for _, v := range c.vals {
		if v < c.limit {
			return false
		}
	}
	return true
}

func (c *countSystem) AppendKey(key []byte) []byte {
	for _, v := range c.vals {
		key = binary.AppendUvarint(key, uint64(v))
	}
	return key
}

func (c *countSystem) Prune() bool { return false }

func (c *countSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	for i, v := range c.vals {
		var fp Footprint
		if v < c.limit {
			fp.Writes = uint64(1) << i
		}
		buf = append(buf, AgentFootprints{Future: fp})
	}
	return buf
}

// BenchmarkExplorerVisited measures the visited store's allocation behavior
// on a 4096-state full exploration. The table grows with the search to 8192
// slots and goes back to the pool when the run returns, so after the first
// iteration the store allocates nothing and -benchmem reports the rest of
// the run.
func BenchmarkExplorerVisited(b *testing.B) {
	const limit, agents = 7, 4 // (limit+1)^agents = 4096 states
	want := 1
	for i := 0; i < agents; i++ {
		want *= limit + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := &Explorer{FullExploration: true, MaxStates: want + 1}
		st, err := x.Run(&countSystem{limit: limit, vals: make([]int, agents)},
			func(TransitionSystem) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		if st.States != want {
			b.Fatalf("visited %d states, want %d", st.States, want)
		}
	}
}

// TestSmallExplorationAllocatesLittle pins what a 12-state exploration under
// a 400 000-state budget allocates: under 2 KB serially and under 7 KB at
// width 2 (4 KB and 14 KB under the race detector, whose pools drop a
// quarter of their puts). The visited tables and the workers with their
// scratch come from pools, and the tables are sized by the states they hold,
// not by the budget; a fresh table or worker per run, or a table per stripe
// whether used or not, would break it.
func TestSmallExplorationAllocatesLittle(t *testing.T) {
	const runs = 20
	for _, row := range []struct {
		workers          int
		limit, raceLimit uint64
	}{{1, 2 << 10, 4 << 10}, {2, 7 << 10, 14 << 10}} {
		limit := row.limit
		if raceEnabled {
			limit = row.raceLimit
		}
		x := &Explorer{MaxStates: 400_000, Workers: row.workers}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			st, err := x.Run(&fanSystem{width: 11, picked: -1}, func(TransitionSystem) bool { return true })
			if err != nil || st.States != 12 {
				t.Fatalf("workers=%d: %d states, err %v; want 12 states", row.workers, st.States, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
			t.Errorf("workers=%d: a 12-state exploration allocated %d bytes, want under %d", row.workers, per, limit)
		}
	}
}

// recycledFan is fanSystem with a Clone that copies into the dead state it
// is given, counting in *fresh the clones made without one.
type recycledFan struct {
	fanSystem
	fresh *int
}

func (f *recycledFan) Clone(reuse TransitionSystem) TransitionSystem {
	c, _ := reuse.(*recycledFan)
	if c == nil {
		*f.fresh++
		c = new(recycledFan)
	}
	*c = *f
	return c
}

// TestTerminalStatesRecycled pins that a terminal state is recycled once
// final returns: a serial search of a root with 11 terminal children clones
// the root and its first child fresh, and every later child into the state
// its elder sibling left (the last consumes the root in place). A kernel that
// kept terminal states would clone all 10 elder children fresh.
func TestTerminalStatesRecycled(t *testing.T) {
	fresh := 0
	finals := 0
	st, err := (&Explorer{}).Run(&recycledFan{fanSystem: fanSystem{width: 11, picked: -1}, fresh: &fresh}, func(s TransitionSystem) bool {
		if s.(*recycledFan).picked != finals {
			t.Errorf("terminal state %d picked step %d", finals, s.(*recycledFan).picked)
		}
		finals++
		return true
	})
	if err != nil || st.States != 12 || st.Finals != 11 || finals != 11 {
		t.Fatalf("%v, %d finals delivered, err %v; want 12 states and 11 finals", st, finals, err)
	}
	if fresh != 2 {
		t.Errorf("the search made %d fresh states, want 2", fresh)
	}
}

// combSystem is a chain of n states, each with a second step off the chain
// to a terminal state: the serial kernel keeps each chain state's frame for
// that sibling while it descends, so its stack grows n frames deep.
type combSystem struct {
	n, depth int
	off      int // 1 once a step left the chain
}

func (c *combSystem) Name() string { return "comb" }

func (c *combSystem) Clone(TransitionSystem) TransitionSystem { d := *c; return &d }

func (c *combSystem) Steps(steps []Step) []Step {
	if c.Done() {
		return steps
	}
	return append(steps, Step{Proc: 0, Info: Info{Opaque: true}}, Step{Proc: 1, Info: Info{Agent: 1, Opaque: true}})
}

func (c *combSystem) Apply(t Step) error {
	if t.Proc == 0 {
		c.depth++
	} else {
		c.off = 1
	}
	return nil
}

func (c *combSystem) Done() bool { return c.off == 1 || c.depth == c.n }

func (c *combSystem) AppendKey(key []byte) []byte {
	return binary.AppendUvarint(key, uint64(2*c.depth+c.off))
}

func (c *combSystem) Prune() bool { return false }

func (c *combSystem) Footprints(buf []AgentFootprints) []AgentFootprints {
	return append(buf, AgentFootprints{Future: Footprint{Opaque: true}}, AgentFootprints{Future: Footprint{Opaque: true}})
}

// TestDeepWorkerNotPooled pins the bound on the worker pool: the worker of a
// serial run whose stack grew past maxPooledDepth is not pooled, so one deep
// exploration does not pin its stack and step buffers for later ones.
func TestDeepWorkerNotPooled(t *testing.T) {
	const n = 2 * maxPooledDepth
	st, err := (&Explorer{Workers: 1}).Run(&combSystem{n: n}, func(TransitionSystem) bool { return true })
	if err != nil || st.States != 2*n+1 {
		t.Fatalf("%v, err %v; want %d states", st, err, 2*n+1)
	}
	w := workerPool.Get().(*worker)
	defer workerPool.Put(w)
	if len(w.stepBufs) > maxPooledDepth {
		t.Errorf("the pool kept a worker %d frames deep, over %d", len(w.stepBufs), maxPooledDepth)
	}
}
