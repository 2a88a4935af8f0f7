package model

import (
	"errors"
	"testing"

	"weakorder/internal/core"
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// sb is the store-buffering program (Figure 1 shape).
func sb() *program.Program {
	return program.MustParse(`
name: sb
init: x=0 y=0
thread:
    st x, 1
    ld r0, y
thread:
    st y, 1
    ld r1, x
`).Program
}

// bothZero detects the SC-violating outcome on a final state (thread 0 loads
// into r0, thread 1 into r1).
func bothZero(fs *program.FinalState) bool {
	return fs.Regs[0][0] == 0 && fs.Regs[1][1] == 0
}

func TestSCMachineEnumeratesAllInterleavings(t *testing.T) {
	x := &Explorer{}
	seen := map[string]bool{}
	_, err := x.FinalStates(NewSC(sb()), func(fs *program.FinalState) bool {
		key := ""
		if fs.Regs[0][0] == 1 {
			key += "a"
		}
		if fs.Regs[1][1] == 1 {
			key += "b"
		}
		if bothZero(fs) {
			t.Error("SC machine produced the store-buffering violation")
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// SC allows exactly (r0,r1) in {(0,1),(1,0),(1,1)}.
	if len(seen) != 3 {
		t.Errorf("distinct SC outcomes = %d, want 3", len(seen))
	}
}

func TestWriteBufferAllowsSB(t *testing.T) {
	x := &Explorer{}
	found := false
	_, err := x.FinalStates(NewWriteBuffer(sb(), ""), func(fs *program.FinalState) bool {
		if bothZero(fs) {
			found = true
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("write buffer should allow both-zero (reads pass buffered writes)")
	}
}

func TestMachinesRecordValidTraces(t *testing.T) {
	mks := []func(*program.Program) Machine{
		func(p *program.Program) Machine { return NewSC(p) },
		func(p *program.Program) Machine { return NewWriteBuffer(p, "") },
		func(p *program.Program) Machine { return NewNetwork(p) },
		func(p *program.Program) Machine { return NewNonAtomic(p) },
		func(p *program.Program) Machine { return NewWODef1(p) },
		func(p *program.Program) Machine { return NewWODef2(p) },
		func(p *program.Program) Machine { return NewWODef2DRF1(p) },
		func(p *program.Program) Machine { return NewWODef2NoReserve(p) },
		func(p *program.Program) Machine { return NewTSO(p) },
		func(p *program.Program) Machine { return NewPSO(p) },
		func(p *program.Program) Machine { return NewRMO(p) },
	}
	x := &Explorer{}
	for _, mk := range mks {
		m := mk(sb())
		name := m.Name()
		checked := 0
		_, err := x.Visit(m, func(f Machine) bool {
			checked++
			if err := f.Trace().Validate(); err != nil {
				t.Errorf("%s: invalid trace: %v", name, err)
				return false
			}
			if f.Trace().Len() != 4 {
				t.Errorf("%s: trace has %d events, want 4", name, f.Trace().Len())
			}
			return checked < 5
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if checked == 0 {
			t.Errorf("%s: no final states", name)
		}
	}
}

// TestSCTraceIsIdealized: every SC trace verifies as an SC witness of itself,
// and for a DRF0 program additionally satisfies the Lemma-1 read-value
// condition (on racy programs like sb the hb-last write is not defined, so
// Lemma 1 is only asserted on the race-free message-passing program).
func TestSCTraceIsIdealized(t *testing.T) {
	x := &Explorer{Mode: KeyExecution, MaxTraceOps: 16}
	_, err := x.Visit(NewSC(sb()), func(f Machine) bool {
		if err := core.VerifyWitness(f.Trace(), nil, f.Trace().Completed); err != nil {
			t.Errorf("SC completion order is not a witness: %v", err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	mp := program.MustParse(`
name: mp
init: d=0 f=0
thread:
    st d, 1
    sync.st f, 1
thread:
wait:
    sync.ld r0, f
    beq r0, 0, wait
    ld r1, d
`).Program
	_, err = x.Visit(NewSC(mp), func(f Machine) bool {
		ord, err := core.BuildOrders(f.Trace(), core.DRF0{})
		if err != nil {
			t.Fatalf("orders: %v", err)
		}
		if rep := core.CheckLemma1(ord, nil); !rep.OK() {
			t.Errorf("DRF0 SC trace violates Lemma 1: %s\n%s", rep, f.Trace())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutcomesKeyedByResult(t *testing.T) {
	x := &Explorer{}
	out, st, err := x.Outcomes(NewSC(sb()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("SC result set = %d, want 3", len(out))
	}
	if st.States == 0 || st.Finals < 3 {
		t.Errorf("stats look wrong: %s", st)
	}
}

func TestEnumeratorProducesDistinctSyncOrders(t *testing.T) {
	// Two sync writers to one location: two distinct sync completion orders
	// even though the final state coincides... (values differ, so results
	// differ too); the execution enumeration must yield both.
	p := program.MustParse(`
name: syncorder
init: s=0
thread:
    sync.st s, 1
thread:
    sync.st s, 2
`).Program
	e := &Enumerator{Prog: p}
	count := 0
	orders := map[string]bool{}
	if err := e.IdealizedExecutions(func(ex *mem.Execution) bool {
		count++
		first := ex.Event(ex.Completed[0])
		orders[first.Access.String()] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(orders) != 2 {
		t.Errorf("distinct first-completions = %d, want 2 (both sync orders)", len(orders))
	}
	_ = count
}

func TestExplorerStateBudget(t *testing.T) {
	x := &Explorer{MaxStates: 3}
	_, err := x.FinalStates(NewNetwork(sb()), func(*program.FinalState) bool { return true })
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("err = %v, want ErrStateBudget", err)
	}
}

func TestExplorerTraceBound(t *testing.T) {
	// An unbounded TAS spin with history keying terminates only via the
	// trace bound.
	p := program.MustParse(`
name: spin
init: s=1
thread:
spin:
    tas r0, s, 1
    bne r0, 0, spin
`).Program
	x := &Explorer{Mode: KeyExecution, MaxTraceOps: 10}
	st, err := x.Visit(NewSC(p), func(Machine) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated == 0 {
		t.Error("expected truncated paths for the endless spin")
	}
}

func TestWindowBoundStallsWriters(t *testing.T) {
	// A thread writing many distinct locations cannot have more than the
	// window outstanding: after `window` writes with no deliveries, the
	// only transitions are deliveries.
	b := program.NewBuilder("writer")
	b.Thread()
	for i := 0; i < DefaultWindow+4; i++ {
		b.Store(mem.Addr(i), program.Imm(1))
	}
	b.Halt()
	b.Thread().Halt() // a second processor so writes actually propagate
	p := b.MustBuild()
	mach := NewNonAtomic(p)
	// Apply exec transitions greedily while available, never delivering.
	writes := 0
	for {
		ts := mach.Transitions(nil)
		var exec *explore.Step
		for i := range ts {
			if ts[i].Kind == TExec && ts[i].Proc == 0 {
				exec = &ts[i]
				break
			}
		}
		if exec == nil {
			break
		}
		if err := mach.Apply(*exec); err != nil {
			t.Fatal(err)
		}
		writes++
		if writes > DefaultWindow+1 {
			t.Fatalf("issued %d writes without any delivery; window not enforced", writes)
		}
	}
	if writes != DefaultWindow {
		t.Errorf("greedy writes = %d, want %d", writes, DefaultWindow)
	}
}

func TestWODef2ReservationBlocksOtherSyncs(t *testing.T) {
	// P0: write x (left pending), sync on s -> reservation. P1's sync on s
	// must not be enabled until P0's write propagates.
	p := program.MustParse(`
name: resv
init: x=0 s=0
thread:
    st x, 1
    sync.st s, 1
thread:
    sync.st s, 2
`).Program
	m := NewWODef2(p)
	apply := func(tr explore.Step) {
		if err := m.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	// P0 writes x (commit, prop pending) then syncs s.
	apply(explore.Step{Kind: TExec, Proc: 0})
	apply(explore.Step{Kind: TExec, Proc: 0})
	// Now P1's sync must be absent from the enabled set.
	for _, tr := range m.Transitions(nil) {
		if tr.Kind == TExec && tr.Proc == 1 {
			t.Fatal("P1's sync enabled despite P0's reservation")
		}
	}
	// Deliver P0's propagation; P1 becomes enabled.
	ts := m.Transitions(nil)
	delivered := false
	for _, tr := range ts {
		if tr.Kind == TDeliver {
			apply(tr)
			delivered = true
			break
		}
	}
	if !delivered {
		t.Fatal("no delivery available")
	}
	found := false
	for _, tr := range m.Transitions(nil) {
		if tr.Kind == TExec && tr.Proc == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("P1's sync still blocked after the reservation drained")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewWODef2(sb())
	ts := m.Transitions(nil)
	if len(ts) == 0 {
		t.Fatal("no transitions")
	}
	c := m.CloneInto(nil)
	if err := c.Apply(ts[0]); err != nil {
		t.Fatal(err)
	}
	if Key(m, KeyState) == Key(c, KeyState) {
		t.Error("applying a transition to the clone should change its key")
	}
	m2 := m.CloneInto(nil)
	if Key(m, KeyState) != Key(m2, KeyState) {
		t.Error("fresh clone should key identically")
	}
}

func TestNonAtomicDeliversLastWriterWins(t *testing.T) {
	// Two writers to one location: after draining, all copies agree on the
	// later commit regardless of delivery interleaving.
	p := program.MustParse(`
name: ww
init: x=0
thread:
    st x, 1
thread:
    st x, 2
`).Program
	x := &Explorer{}
	_, err := x.Visit(NewNonAtomic(p), func(f Machine) bool {
		na := f.(*WeakOrdered)
		v0 := na.c.data[0].get(mem.Addr(0))
		v1 := na.c.data[1].get(mem.Addr(0))
		if v0 != v1 {
			t.Errorf("copies diverge after drain: %d vs %d", v0, v1)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHashedKeysMatchFullKeys cross-checks the production digest-deduplicated
// exploration against the collision-free full-key debug mode: on a spread of
// machines and key modes both must visit exactly the same number of states,
// transitions and finals.
func TestHashedKeysMatchFullKeys(t *testing.T) {
	mp := program.MustParse(`
name: mp
init: d=0 f=0
thread:
    st d, 1
    sync.st f, 1
thread:
wait:
    sync.ld r0, f
    beq r0, 0, wait
    ld r1, d
`).Program
	progs := []*program.Program{sb(), mp}
	machines := []func(*program.Program) Machine{
		func(p *program.Program) Machine { return NewSC(p) },
		func(p *program.Program) Machine { return NewWriteBuffer(p, "") },
		func(p *program.Program) Machine { return NewNetwork(p) },
		func(p *program.Program) Machine { return NewNonAtomic(p) },
		func(p *program.Program) Machine { return NewWODef2(p) },
		func(p *program.Program) Machine { return NewTSO(p) },
		func(p *program.Program) Machine { return NewPSO(p) },
		func(p *program.Program) Machine { return NewRMO(p) },
	}
	for _, p := range progs {
		for _, mk := range machines {
			for _, mode := range []KeyMode{KeyState, KeyResult, KeyExecution} {
				hashed := &Explorer{Mode: mode, MaxTraceOps: 24}
				full := &Explorer{Mode: mode, MaxTraceOps: 24, FullKeys: true}
				hs, err := hashed.Visit(mk(p), func(Machine) bool { return true })
				if err != nil {
					t.Fatalf("%s mode %d hashed: %v", mk(p).Name(), mode, err)
				}
				fs, err := full.Visit(mk(p), func(Machine) bool { return true })
				if err != nil {
					t.Fatalf("%s mode %d full: %v", mk(p).Name(), mode, err)
				}
				if hs != fs {
					t.Errorf("%s on %s mode %d: hashed stats %+v != full-key stats %+v",
						mk(p).Name(), p.Name, mode, hs, fs)
				}
			}
		}
	}
}
