package model

import (
	"runtime"
	"testing"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// computedAddrs has register-computed accesses that land both inside the
// static address universe {x, y, s} = {0, 1, 2} (x+1 is y) and outside it
// (x+5 and x+9), including a read of an overflow location before any write
// to it. Every path writes both overflow locations. Both threads write x+9,
// one of them four times, so on RMO two clones of one state can each append
// a different value to a shared history of three versions (which has room
// for a fourth).
func computedAddrs() *program.Program {
	return program.MustParse(`
name: computed-addrs
init: x=0 y=0 s=0
thread:
    mov r1, 1
    mov r2, 9
    st x[r1], 1
    st x[r2], 2
    st x[r2], 3
    st x[r2], 8
    st x[r2], 6
    sync.st s, 1
thread:
    mov r2, 5
    mov r4, 9
    sync.ld r0, s
    ld r1, x[r2]
    st x[r2], 7
    st x[r4], 4
    ld r3, y
`).Program
}

// snapshot is everything TestCloneIndependenceComputedAddrs compares on the
// side of a clone pair that did not move.
type snapshot struct {
	state, result, execution, trace, outcome string
	traceLen                                 int
}

func snap(m Machine) snapshot {
	return snapshot{
		state:     Key(m, KeyState),
		result:    Key(m, KeyResult),
		execution: Key(m, KeyExecution),
		trace:     m.Trace().String(),
		outcome:   ResultOf(m).Key(),
		traceLen:  m.TraceLen(),
	}
}

// largestState returns the reachable state of root whose execution key is
// longest: the one holding the most machine contents — buffered writes,
// pending propagations, in-flight messages, overflow slots, RMO history
// versions — to recycle as the destination of copies.
func largestState(t *testing.T, root Machine) Machine {
	t.Helper()
	best, bestLen := root, 0
	seen := map[string]bool{}
	stack := []Machine{root}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ts := m.Transitions(nil)
		k := Key(m, KeyExecution)
		if seen[k] {
			continue
		}
		seen[k] = true
		if len(k) > bestLen {
			best, bestLen = m, len(k)
		}
		for _, tr := range ts {
			c := m.CloneInto(nil)
			if err := c.Apply(tr); err != nil {
				t.Fatalf("%s: %s: %v", m.Name(), tr, err)
			}
			stack = append(stack, c)
		}
	}
	return best
}

// TestCloneIndependenceComputedAddrs walks every reachable state of every
// machine, the broken ones included, on a program with computed addresses.
// At each state it takes a clone pair and moves each side by a different
// enabled step, and checks that neither step changed the other side or the
// state they were cloned from: clones share the execution history and, on
// RMO, the value histories, so a write into shared structure would show here.
// Each pair is taken twice: by Clone, and by CloneInto a dead copy of the
// machine's largest reachable state, which must key-equal the fresh clone at
// every key mode before either side moves.
func TestCloneIndependenceComputedAddrs(t *testing.T) {
	p := computedAddrs()
	for _, f := range commuteFactories() {
		root := f.mk(p)
		name := f.name
		largest := largestState(t, f.mk(p))
		copies := []struct {
			how    string
			copyOf func(Machine) Machine
		}{
			{"Clone", func(m Machine) Machine { return m.CloneInto(nil) }},
			{"CloneInto", func(m Machine) Machine { return m.CloneInto(largest.CloneInto(nil)) }},
		}
		seen := map[string]bool{}
		stack := []Machine{root}
		states, finals := 0, 0
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Transitions may normalize lazy state (RMO creates the
			// history of an overflow location a read is about to reach),
			// so list them before keying.
			ts := m.Transitions(nil)
			k := Key(m, KeyResult)
			if seen[k] {
				continue
			}
			seen[k] = true
			states++
			if len(ts) == 0 {
				if !m.Done() {
					t.Fatalf("%s: stuck state", name)
				}
				finals++
				final := ResultOf(m).Final
				for _, a := range []mem.Addr{5, 9} {
					if _, ok := final[a]; !ok {
						t.Errorf("%s: ResultOf(m).Final %v lacks overflow location x%d", name, final, a)
					}
				}
				if final[5] != 7 || (final[9] != 6 && final[9] != 4) {
					t.Errorf("%s: overflow locations end as %d, %d; want 7, and 6 or 4", name, final[5], final[9])
				}
				continue
			}
			before := snap(m)
			for i := range ts {
				j := (i + 1) % len(ts)
				for _, c := range copies {
					how := c.how
					a := m.CloneInto(nil)
					b := c.copyOf(a)
					if got := snap(b); got != before {
						t.Fatalf("%s: %s of a state differs from it:\nwant %+v\ngot  %+v", name, how, before, got)
					}
					if err := b.Apply(ts[i]); err != nil {
						t.Fatalf("%s: %s: %v", name, ts[i], err)
					}
					if got := snap(a); got != before {
						t.Fatalf("%s: applying %s to a %s changed the original:\nbefore %+v\nafter  %+v", name, ts[i], how, before, got)
					}
					movedB := snap(b)
					if err := a.Apply(ts[j]); err != nil {
						t.Fatalf("%s: %s: %v", name, ts[j], err)
					}
					if got := snap(b); got != movedB {
						t.Fatalf("%s: applying %s to the original changed a %s:\nbefore %+v\nafter  %+v", name, ts[j], how, movedB, got)
					}
					if got := snap(m); got != before {
						t.Fatalf("%s: stepping two copies (%s) changed the state they came from", name, how)
					}
					if how == "Clone" {
						stack = append(stack, b)
					}
				}
			}
		}
		if finals == 0 {
			t.Errorf("%s: no final states among %d", name, states)
		}
	}
}

// stepQuiescent drives m deterministically, preferring drains and deliveries
// over executions, until it has recorded at least n accesses and has no
// drain or delivery left: buffers and in-flight lists are then empty, so two
// such states differ only in their history and thread state.
func stepQuiescent(t *testing.T, m Machine, n int) {
	t.Helper()
	for {
		ts := m.Transitions(nil)
		if len(ts) == 0 {
			t.Fatalf("%s: ran out of steps at %d accesses", m.Name(), m.TraceLen())
		}
		next := ts[0]
		for _, tr := range ts {
			if tr.Kind != TExec {
				next = tr
				break
			}
		}
		if next.Kind == TExec && m.TraceLen() >= n {
			return
		}
		if err := m.Apply(next); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneBytes returns the bytes one Clone of m allocates, averaged over 50
// clones on one thread.
func cloneBytes(m Machine) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		_ = m.CloneInto(nil)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 50
}

// TestCloneCostIndependentOfHistory pins the allocations of Clone, in count
// and in bytes, equal after about 10 and about 30 recorded accesses of one
// program: clones share the history instead of copying it.
func TestCloneCostIndependentOfHistory(t *testing.T) {
	p := program.MustParse(`
name: clone-cost
init: x=0 y=0 s=0
thread:
    mov r1, 0
loop0:
    st x, r1
    ld r2, y
    sync.st s, r1
    add r1, r1, 1
    blt r1, 40, loop0
thread:
    mov r1, 0
loop1:
    st y, r1
    ld r2, x
    sync.ld r3, s
    add r1, r1, 1
    blt r1, 40, loop1
`).Program
	for _, f := range commuteFactories() {
		m := f.mk(p)
		var allocs []float64
		var bytes []uint64
		for _, n := range []int{10, 30} {
			stepQuiescent(t, m, n)
			allocs = append(allocs, testing.AllocsPerRun(50, func() { _ = m.CloneInto(nil) }))
			bytes = append(bytes, cloneBytes(m))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Clone allocates %v times at about 10 accesses but %v at about 30", m.Name(), allocs[0], allocs[1])
		}
		if bytes[0] != bytes[1] {
			t.Errorf("%s: Clone allocates %d bytes at about 10 accesses but %d at about 30", m.Name(), bytes[0], bytes[1])
		}
	}
}

// TestKeyLengthIndependentOfHistory pins the KeyResult key's length, and the
// SC machine's KeyExecution key's, equal in two states with equal threads and
// memory, one after 10 recorded reads and one after 30: a key holds one digest
// per history chain instead of the chain. The fully rendered key, which lists
// the chains, must grow between the two, or the states would not differ in
// history at all.
func TestKeyLengthIndependentOfHistory(t *testing.T) {
	p := program.MustParse(`
name: key-length
init: x=0 y=0 s=0
thread:
loop0:
    ld r1, y
    sync.ld r2, s
    beq r1, 0, loop0
thread:
    st x, 1
    sync.st s, 1
    st y, 1
`).Program
	for _, f := range commuteFactories() {
		m := f.mk(p)
		modes := []KeyMode{KeyResult}
		if f.name == "SC" {
			modes = append(modes, KeyExecution)
		}
		var state []string
		var lens, fullLens [][]int
		for _, n := range []int{10, 30} {
			stepQuiescent(t, m, n)
			state = append(state, Key(m, KeyState))
			var l, fl []int
			for _, mode := range modes {
				l = append(l, len(Key(m, mode)))
				fl = append(fl, len(Key(m, mode|keyFull)))
			}
			lens, fullLens = append(lens, l), append(fullLens, fl)
		}
		if state[0] != state[1] {
			t.Fatalf("%s: the states after 10 and 30 reads differ in threads or memory", f.name)
		}
		for i, mode := range modes {
			if lens[0][i] != lens[1][i] {
				t.Errorf("%s: mode %d key is %d bytes after 10 reads but %d after 30", f.name, mode, lens[0][i], lens[1][i])
			}
			if fullLens[0][i] >= fullLens[1][i] {
				t.Errorf("%s: mode %d full key did not grow from 10 reads (%d bytes) to 30 (%d)", f.name, mode, fullLens[0][i], fullLens[1][i])
			}
		}
	}
}
