package model

import (
	"testing"

	"weakorder/internal/program"
)

// mpData is unsynchronized message passing: the r0=1, r1=0 outcome witnesses
// a store-store (writer) or load-load (reader) reordering and so separates
// PSO/RMO from TSO.
func mpData() *program.Program {
	return program.MustParse(`
name: mp-data
init: d=0 f=0
thread:
    st d, 1
    st f, 1
thread:
    ld r0, f
    ld r1, d
`).Program
}

// mpRelease fences the writer only: st d; sync.st f. The stale outcome now
// needs the *reader* to reorder its loads, separating RMO from PSO.
func mpRelease() *program.Program {
	return program.MustParse(`
name: mp-release
init: d=0 f=0
thread:
    st d, 1
    sync.st f, 1
thread:
    ld r0, f
    ld r1, d
`).Program
}

// sbForward is store buffering with each thread reading its own store first:
// r0=1, r1=0, r2=1, r3=0 needs each store to reach its own thread's first
// load before it reaches the other thread's last load, which forwarding from
// a store buffer gives and ordered arrival at memory does not.
func sbForward() *program.Program {
	return program.MustParse(`
name: sb-forward
init: x=0 y=0
thread:
    st x, 1
    ld r0, x
    ld r1, y
thread:
    st y, 1
    ld r2, y
    ld r3, x
`).Program
}

func hasOutcome(t *testing.T, m Machine, pred func(*program.FinalState) bool) bool {
	t.Helper()
	x := &Explorer{}
	found := false
	if _, err := x.FinalStates(m, func(fs *program.FinalState) bool {
		if pred(fs) {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

func staleMP(fs *program.FinalState) bool {
	return fs.Regs[1][0] == 1 && fs.Regs[1][1] == 0
}

func TestRelaxedLadderDiscrimination(t *testing.T) {
	// TSO: SB both-zero allowed (W->R relaxed), MP reorder forbidden.
	if !hasOutcome(t, NewTSO(sb()), bothZero) {
		t.Error("tso should allow the store-buffering both-zero outcome")
	}
	if hasOutcome(t, NewTSO(mpData()), staleMP) {
		t.Error("tso must not reorder same-thread stores (mp-data stale read)")
	}
	// PSO: MP reorder allowed via store-store relaxation, but a fenced writer
	// restores order because loads stay in order.
	if !hasOutcome(t, NewPSO(mpData()), staleMP) {
		t.Error("pso should allow the mp-data stale read (store-store reorder)")
	}
	if hasOutcome(t, NewPSO(mpRelease()), staleMP) {
		t.Error("pso must not show a stale read once the writer is fenced")
	}
	// RMO: even the fenced writer can be observed stale, because the reader's
	// second load may use an old view.
	if !hasOutcome(t, NewRMO(mpRelease()), staleMP) {
		t.Error("rmo should allow the stale read under a writer-only fence")
	}
	// Network (no cache) beside PSO: a read queues behind its own thread's
	// writes to the location instead of forwarding from them, so the
	// store-buffering outcome that needs forwarding is PSO's alone.
	forwarded := func(fs *program.FinalState) bool {
		return fs.Regs[0][0] == 1 && fs.Regs[0][1] == 0 && fs.Regs[1][2] == 1 && fs.Regs[1][3] == 0
	}
	if !hasOutcome(t, NewPSO(sbForward()), forwarded) {
		t.Error("pso should allow the sb-forward outcome through store forwarding")
	}
	if hasOutcome(t, NewNetwork(sbForward()), forwarded) {
		t.Error("network-nocache must not forward a queued write to a read (sb-forward)")
	}
}

// TestRMOCoherence: per-location ordering survives the stale-view mechanism —
// a reader that saw the new value never regresses to the old one (CoRR).
func TestRMOCoherence(t *testing.T) {
	p := program.MustParse(`
name: corr
init: x=0
thread:
    st x, 1
thread:
    ld r0, x
    ld r1, x
`).Program
	if hasOutcome(t, NewRMO(p), func(fs *program.FinalState) bool {
		return fs.Regs[1][0] == 1 && fs.Regs[1][1] == 0
	}) {
		t.Error("rmo violated CoRR: read of x went backward in coherence order")
	}
}

// TestRMOSyncIsFullFence: syncs on both sides restore SC for the MP shape.
func TestRMOSyncIsFullFence(t *testing.T) {
	p := program.MustParse(`
name: mp-sync
init: d=0 f=0
thread:
    st d, 1
    sync.st f, 1
thread:
    sync.ld r0, f
    ld r1, d
`).Program
	if hasOutcome(t, NewRMO(p), staleMP) {
		t.Error("rmo must not show a stale read across sync/sync message passing")
	}
}

// TestRelaxedReadForwarding: a processor always sees its own buffered store;
// on the network machine, a read queued behind its own writes to the
// location returns the newest of them.
func TestRelaxedReadForwarding(t *testing.T) {
	p := program.MustParse(`
name: fwd
init: x=0
thread:
    st x, 1
    st x, 2
    ld r0, x
`).Program
	for _, mk := range []func(*program.Program) Machine{
		func(q *program.Program) Machine { return NewTSO(q) },
		func(q *program.Program) Machine { return NewPSO(q) },
		func(q *program.Program) Machine { return NewRMO(q) },
		func(q *program.Program) Machine { return NewNetwork(q) },
	} {
		m := mk(p)
		name := m.Name()
		if hasOutcome(t, m, func(fs *program.FinalState) bool { return fs.Regs[0][0] != 2 }) {
			t.Errorf("%s: read did not return the newest of its own buffered stores", name)
		}
	}
}

// TestRelaxedCloneIndependence exercises Clone on the map-heavy RMO state.
func TestRelaxedCloneIndependence(t *testing.T) {
	for _, mk := range []func(*program.Program) Machine{
		func(q *program.Program) Machine { return NewTSO(q) },
		func(q *program.Program) Machine { return NewPSO(q) },
		func(q *program.Program) Machine { return NewRMO(q) },
	} {
		m := mk(sb())
		ts := m.Transitions(nil)
		if len(ts) == 0 {
			t.Fatalf("%s: no transitions", m.Name())
		}
		c := m.CloneInto(nil)
		if err := c.Apply(ts[0]); err != nil {
			t.Fatal(err)
		}
		if Key(m, KeyState) == Key(c, KeyState) {
			t.Errorf("%s: applying a transition to the clone should change its key", m.Name())
		}
		if Key(m, KeyState) != Key(m.CloneInto(nil), KeyState) {
			t.Errorf("%s: fresh clone should key identically", m.Name())
		}
	}
}
