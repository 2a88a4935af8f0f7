package model

import (
	"reflect"
	"slices"
	"testing"

	"weakorder/internal/program"
)

// foreignDest is a program of three threads over a universe of six
// locations, with overflow locations of its own and syncs on two locations.
// TestCloneIntoForeignState recycles its busy states as the destination of
// copies of computedAddrs' states, and copies its own states into busy states
// of narrowDest.
func foreignDest() *program.Program {
	return program.MustParse(`
name: foreign-dest
init: a=1 b=2 c=3 d=4 e=5 f=6
thread:
    mov r1, 9
    st a, 7
    st a[r1], 1
    st b, 2
    sync.st d, 1
    st c, 3
    ld r2, f
    st e, 4
thread:
    mov r1, 11
    st f, 5
    st a[r1], 6
    st b, 8
    ld r3, c
    sync.ld r0, d
    st e, 9
thread:
    st c, 8
    st e, 9
    ld r4, a
    sync.st f, 2
    st b, 1
    ld r5, e
`).Program
}

// narrowDest is a program of as many threads as foreignDest over a universe
// of three locations. A state's per-processor tables share one allocation,
// one share per table, so copying foreignDest's six-location tables into
// narrowDest's would overrun each share if a copy could write past it.
func narrowDest() *program.Program {
	return program.MustParse(`
name: narrow-dest
init: u=7 v=8 w=9
thread:
    mov r1, 5
    st u, 1
    st u[r1], 2
    sync.st w, 1
    st v, 3
thread:
    st v, 4
    st w, 5
    sync.ld r0, w
    ld r1, u
thread:
    st w, 6
    st u, 7
    ld r2, v
    sync.st v, 8
`).Program
}

// chainDelays is a delay set for NewWriteBufferDelays: every op of every
// thread after its first waits for the op before it.
func chainDelays(p *program.Program) []map[int][]int {
	delays := make([]map[int][]int, p.NumThreads())
	for t := range delays {
		delays[t] = map[int][]int{}
		for k := 1; k < len(p.Threads[t]); k++ {
			delays[t][k] = []int{k - 1}
		}
	}
	return delays
}

// advance drives m deterministically into a busy state: up to n steps,
// taking an execution two steps in three when one is enabled and otherwise
// spreading its choices over the enabled steps, so that buffered writes,
// in-flight messages and pending propagations pile up while others retire.
func advance(t *testing.T, m Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := m.Transitions(nil)
		if len(ts) == 0 {
			return
		}
		next := ts[(5*i+3)%len(ts)]
		if i%3 != 2 {
			for _, s := range ts {
				if s.Kind == TExec {
					next = s
					break
				}
			}
		}
		if err := m.Apply(next); err != nil {
			t.Fatalf("%s: %s: %v", m.Name(), next, err)
		}
	}
}

// isBusy reports whether m is mid-run with a recorded history and, unless it
// is the SC machine, a buffered write, an in-flight message or a pending
// propagation.
func isBusy(m Machine) bool {
	if m.Done() || m.TraceLen() == 0 {
		return false
	}
	if _, ok := m.(*SC); ok {
		return true
	}
	for _, s := range m.Transitions(nil) {
		if s.Kind != TExec {
			return true
		}
	}
	return false
}

// TestCloneIntoForeignState pins the promise that lets explorations share
// dead states across programs: CloneInto overwrites any dst of its kind that
// nothing references, whatever program dst ran. Every machine, standard and
// broken, and a delay-set machine copies a state into a busy state of each
// machine of the same type (so possibly another Relaxed or WeakOrdered mode)
// over another program, one with buffered writes, in-flight messages,
// pending propagations, RMO histories, reservations and overflow slots. The
// copy must equal a fresh copy on what an exploration reads of a state (its
// steps with their Info, its footprints, its keys, digested and full, its
// trace and its result), and both must stay equal along every path of up to
// three steps applied to each. The states copied are the source
// program's initial state and a busy one, and the pairs of programs are:
//
//   - computedAddrs into foreignDest: another thread count and a larger
//     universe, so the per-processor tables and buffers are made afresh;
//   - foreignDest into narrowDest: as many threads and a smaller universe,
//     so they are written in place, each within its share of one allocation.
func TestCloneIntoForeignState(t *testing.T) {
	const depth = 3
	type factory = struct {
		name string
		mk   func(*program.Program) Machine
	}
	machines := append(commuteFactories(),
		factory{"bus+cache+writebuffer", func(p *program.Program) Machine { return NewWriteBuffer(p, "bus+cache+writebuffer") }},
		factory{"bus+writebuffer+delays", func(p *program.Program) Machine { return NewWriteBufferDelays(p, chainDelays(p)) }})
	for _, c := range []struct {
		src, dst  *program.Program
		busySteps int // the steps that make a busy dst state
	}{{computedAddrs(), foreignDest(), 12}, {foreignDest(), narrowDest(), 8}} {
		src, dst := c.src, c.dst
		for _, f := range machines {
			busySrc := f.mk(src)
			advance(t, busySrc, 6)
			for _, g := range machines {
				busy := g.mk(dst)
				if reflect.TypeOf(busy) != reflect.TypeOf(busySrc) {
					continue
				}
				advance(t, busy, c.busySteps)
				if !isBusy(busy) {
					t.Fatalf("%s on %s: not a busy state: %v", g.name, dst.Name, busy.Transitions(nil))
				}
				for _, m := range []Machine{f.mk(src), busySrc} {
					// walk replays a path, given as indices into each
					// state's steps, on a copy of m into a copy of busy and
					// on a fresh copy, and compares the two at its end.
					var walk func(path []int)
					walk = func(path []int) {
						a, b := m.CloneInto(busy.CloneInto(nil)), m.CloneInto(nil)
						for _, i := range path {
							s := b.Transitions(nil)[i]
							if err := a.Apply(s); err != nil {
								t.Fatalf("%s into %s, path %v: %s: %v", f.name, g.name, path, s, err)
							}
							if err := b.Apply(s); err != nil {
								t.Fatalf("%s, path %v: %s: %v", f.name, path, s, err)
							}
						}
						// Transitions first, as in an exploration: it runs
						// the threads' local code, which keys then render.
						ts := b.Transitions(nil)
						if !slices.Equal(a.Transitions(nil), ts) ||
							!slices.Equal(a.Footprints(nil), b.Footprints(nil)) || snap(a) != snap(b) ||
							Key(a, KeyExecution|keyFull) != Key(b, KeyExecution|keyFull) {
							t.Fatalf("%s on %s copied into a busy %s state on %s differs from a fresh copy after steps %v:\ngot  %+v %v\nwant %+v %v",
								f.name, src.Name, g.name, dst.Name, path, snap(a), a.Transitions(nil), snap(b), ts)
						}
						if len(path) == depth {
							return
						}
						for i := range ts {
							walk(append(path[:len(path):len(path)], i))
						}
					}
					walk(nil)
				}
			}
		}
	}
}
