package cache

import (
	"errors"
	"testing"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/sim"
)

// rig wires two caches and a directory over a unit-latency network.
type rig struct {
	engine *sim.Engine
	c0, c1 *Cache
	dir    *DirShard
}

func newRig(t *testing.T, init map[mem.Addr]mem.Value) *rig {
	t.Helper()
	e := sim.NewEngine(1_000_000, 1_000_000)
	net := interconnect.NewNetwork(e, 2, 0, nil, true)
	msgs := new(MsgPool)
	dir := NewDirectory(2, e, net, msgs, 1, init)
	c0 := New(0, e, net, msgs, 2, 1)
	c1 := New(1, e, net, msgs, 2, 1)
	return &rig{engine: e, c0: c0, c1: c1, dir: dir}
}

// funcSink adapts closures to IssueSink, so tests can write an access's
// continuations inline.
type funcSink struct {
	committed func(v mem.Value)
	performed func()
}

func (f funcSink) LineCommitted(_ *IssueCtx, v mem.Value) { f.committed(v) }

func (f funcSink) LinePerformed(*IssueCtx) {
	if f.performed != nil {
		f.performed()
	}
}

// acquireShared issues a shared access whose commit runs done.
func acquireShared(c *Cache, a mem.Addr, sync bool, done func(v mem.Value)) {
	c.AcquireSharedCtx(a, sync, funcSink{committed: done}, IssueCtx{})
}

// acquireExclusive issues an exclusive access whose commit runs committed
// and whose global performance runs performed (nil allowed).
func acquireExclusive(c *Cache, a mem.Addr, sync bool, committed func(old mem.Value), performed func()) {
	c.AcquireExclusiveCtx(a, sync, funcSink{committed: committed, performed: performed}, IssueCtx{})
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.engine.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestReadMissInstallsShared(t *testing.T) {
	r := newRig(t, map[mem.Addr]mem.Value{7: 42})
	var got mem.Value = -1
	acquireShared(r.c0, 7, false, func(v mem.Value) { got = v })
	r.run(t)
	if got != 42 {
		t.Fatalf("read = %d", got)
	}
	if r.c0.State(7) != Shared {
		t.Errorf("state = %s, want S", r.c0.State(7))
	}
	if r.c0.Counter() != 0 {
		t.Errorf("counter = %d, want 0 after completion", r.c0.Counter())
	}
	// Second read is a hit: no new transaction.
	misses := r.c0.Stats.Get("read_misses")
	acquireShared(r.c0, 7, false, func(v mem.Value) { got = v })
	r.run(t)
	if r.c0.Stats.Get("read_misses") != misses {
		t.Error("second read should hit")
	}
}

func TestWriteMissToUnownedIsImmediatelyPerformed(t *testing.T) {
	r := newRig(t, nil)
	committed, performed := false, false
	acquireExclusive(r.c0, 3, false, func(old mem.Value) {
		committed = true
		r.c0.WriteLocal(3, 5)
	}, func() { performed = true })
	r.run(t)
	if !committed || !performed {
		t.Fatalf("committed=%v performed=%v", committed, performed)
	}
	if r.c0.State(3) != Exclusive {
		t.Errorf("state = %s, want E", r.c0.State(3))
	}
	if v, _ := r.c0.Snoop(3); v != 5 {
		t.Errorf("value = %d", v)
	}
}

func TestWriteToSharedCollectsInvAck(t *testing.T) {
	r := newRig(t, map[mem.Addr]mem.Value{1: 9})
	acquireShared(r.c1, 1, false, func(mem.Value) {})
	r.run(t)
	// c0 upgrades: c1 must be invalidated; commit happens before performed.
	var commitAt, performAt sim.Time
	acquireExclusive(r.c0, 1, false, func(old mem.Value) {
		if old != 9 {
			t.Errorf("old = %d", old)
		}
		commitAt = r.engine.Now()
		r.c0.WriteLocal(1, 10)
	}, func() { performAt = r.engine.Now() })
	r.run(t)
	if r.c1.State(1) != Invalid {
		t.Errorf("sharer state = %s, want I", r.c1.State(1))
	}
	if r.c1.Stats.Get("invalidations") != 1 {
		t.Errorf("invalidations = %d", r.c1.Stats.Get("invalidations"))
	}
	if !(commitAt > 0 && performAt > commitAt) {
		t.Errorf("commit=%d perform=%d: global performance must follow commit", commitAt, performAt)
	}
	if r.c0.Counter() != 0 {
		t.Errorf("counter = %d after performance", r.c0.Counter())
	}
}

func TestOwnershipTransferOnWrite(t *testing.T) {
	r := newRig(t, nil)
	acquireExclusive(r.c0, 4, false, func(mem.Value) { r.c0.WriteLocal(4, 1) }, nil)
	r.run(t)
	var old mem.Value = -1
	acquireExclusive(r.c1, 4, false, func(v mem.Value) {
		old = v
		r.c1.WriteLocal(4, 2)
	}, nil)
	r.run(t)
	if old != 1 {
		t.Fatalf("transferred value = %d, want 1", old)
	}
	if r.c0.State(4) != Invalid || r.c1.State(4) != Exclusive {
		t.Errorf("states: c0=%s c1=%s", r.c0.State(4), r.c1.State(4))
	}
	if r.dir.Owner(4) != 1 {
		t.Errorf("directory owner = %d, want 1", r.dir.Owner(4))
	}
}

func TestOwnerDowngradeOnRead(t *testing.T) {
	r := newRig(t, nil)
	acquireExclusive(r.c0, 5, false, func(mem.Value) { r.c0.WriteLocal(5, 77) }, nil)
	r.run(t)
	var got mem.Value
	acquireShared(r.c1, 5, false, func(v mem.Value) { got = v })
	r.run(t)
	if got != 77 {
		t.Fatalf("read-through-owner = %d", got)
	}
	if r.c0.State(5) != Shared || r.c1.State(5) != Shared {
		t.Errorf("states: c0=%s c1=%s, want S/S", r.c0.State(5), r.c1.State(5))
	}
	if v, ok := r.dir.MemValue(5); !ok || v != 77 {
		t.Errorf("directory value = %d,%v", v, ok)
	}
}

func TestReserveStallsRemoteSync(t *testing.T) {
	r := newRig(t, map[mem.Addr]mem.Value{1: 0, 2: 0})
	// c1 shares line 2 so c0's write to it needs an invalidation round.
	acquireShared(r.c1, 2, false, func(mem.Value) {})
	r.run(t)
	// c0: acquire the sync line 1 exclusively, then start a slow write to
	// line 2 and reserve line 1 while the write is outstanding.
	acquireExclusive(r.c0, 1, true, func(mem.Value) { r.c0.WriteLocal(1, 1) }, nil)
	r.run(t)
	acquireExclusive(r.c0, 2, false, func(mem.Value) { r.c0.WriteLocal(2, 9) }, nil)
	if r.c0.Counter() == 0 {
		t.Fatal("write should be outstanding")
	}
	r.c0.Reserve(1)
	if !r.c0.Reserved(1) {
		t.Fatal("reserve bit not set")
	}
	// c1's sync request for line 1 must not complete before c0's counter
	// reads zero — and when it does, the reserve bit must be clear.
	var syncDone sim.Time
	counterAtService := -1
	acquireExclusive(r.c1, 1, true, func(old mem.Value) {
		syncDone = r.engine.Now()
		counterAtService = r.c0.Counter()
		r.c1.WriteLocal(1, 2)
	}, nil)
	r.run(t)
	if syncDone == 0 {
		t.Fatal("remote sync never completed")
	}
	if counterAtService != 0 {
		t.Errorf("remote sync serviced while owner counter = %d", counterAtService)
	}
	if r.c0.Stats.Get("reserve_stalls") != 1 {
		t.Errorf("reserve_stalls = %d, want 1", r.c0.Stats.Get("reserve_stalls"))
	}
	if r.c0.Reserved(1) {
		t.Error("reserve bit should clear when the counter reads zero")
	}
}

func TestDataFwdNotStalledByReserve(t *testing.T) {
	r := newRig(t, map[mem.Addr]mem.Value{1: 0, 2: 0})
	acquireShared(r.c1, 2, false, func(mem.Value) {})
	r.run(t)
	acquireExclusive(r.c0, 1, true, func(mem.Value) { r.c0.WriteLocal(1, 1) }, nil)
	r.run(t)
	acquireExclusive(r.c0, 2, false, func(mem.Value) { r.c0.WriteLocal(2, 9) }, nil)
	r.c0.Reserve(1)
	// A *data* read of the reserved line is serviced immediately (only
	// synchronization requests stall on reserve bits).
	var got mem.Value = -1
	acquireShared(r.c1, 1, false, func(v mem.Value) { got = v })
	r.run(t)
	if got != 1 {
		t.Fatalf("data read of reserved line = %d, want 1", got)
	}
}

func TestOnCounterZeroImmediateWhenIdle(t *testing.T) {
	r := newRig(t, nil)
	called := false
	r.c0.OnCounterZero(func() { called = true })
	if !called {
		t.Fatal("idle cache should fire immediately")
	}
}

func TestBusyAndOnFree(t *testing.T) {
	r := newRig(t, nil)
	acquireExclusive(r.c0, 6, false, func(mem.Value) { r.c0.WriteLocal(6, 1) }, nil)
	if !r.c0.Busy(6) {
		t.Fatal("MSHR should be busy")
	}
	freed := false
	r.c0.OnFree(6, func() { freed = true })
	r.run(t)
	if !freed {
		t.Fatal("OnFree never fired")
	}
	ranNow := false
	r.c0.OnFree(6, func() { ranNow = true })
	if !ranNow {
		t.Fatal("OnFree on idle address should fire immediately")
	}
}

func TestWriteLocalRequiresExclusive(t *testing.T) {
	r := newRig(t, nil)
	r.c0.WriteLocal(9, 1)
	err := r.engine.Failed()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestLineStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" {
		t.Error("state strings wrong")
	}
	if MsgGetS.String() != "GetS" || MsgWriteAck.String() != "WriteAck" {
		t.Error("message strings wrong")
	}
}
