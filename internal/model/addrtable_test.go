package model

import (
	"math"
	"slices"
	"testing"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// TestUniverseSlots checks both ways a universe resolves a static address:
// through its direct index when its addresses lie close together, and by a
// linear scan when they are too sparse for one. Either way slot must agree
// with a binary search of the sorted addresses, for addresses inside,
// between and beyond them.
func TestUniverseSlots(t *testing.T) {
	cases := []struct {
		addrs   []mem.Addr
		indexed bool
	}{
		{nil, false},
		{[]mem.Addr{7}, true},
		{[]mem.Addr{0, 1, 2}, true},
		{[]mem.Addr{10, 11, 12, 21}, true},                         // span 12, 3 per address
		{[]mem.Addr{10, 11, 12, 26}, false},                        // span 17, over 4 per address
		{[]mem.Addr{100, 101, 200, 201}, false},                    // four sparse locations
		{[]mem.Addr{0, 1 << 20}, false},                            // two locations far apart
		{[]mem.Addr{0, math.MaxUint32}, false},                     // the whole address space
		{[]mem.Addr{3, 40, 41, 90, 200, 201, 500, 1 << 20}, false}, // eight sparse locations
	}
	for _, c := range cases {
		u := newUniverse(c.addrs)
		if got := u.index != nil; got != c.indexed {
			t.Errorf("%v: indexed %v, want %v", c.addrs, got, c.indexed)
		}
		probes := []mem.Addr{0, 1, math.MaxUint32, math.MaxUint32 - 1}
		for _, a := range c.addrs {
			probes = append(probes, a, a-1, a+1, a+4, a-4)
		}
		for _, a := range probes {
			i, ok := u.slot(a)
			wi, wok := slices.BinarySearch(c.addrs, a)
			if ok != wok || (ok && i != wi) {
				t.Errorf("%v: slot(%d) = %d, %v, want %d, %v", c.addrs, a, i, ok, wi, wok)
			}
		}
	}
}

// spread returns p with every address a moved to a*stride, an order-preserving
// renaming. p must not compute addresses from registers.
func spread(p *program.Program, stride mem.Addr) *program.Program {
	q := &program.Program{Name: p.Name, Init: make(map[mem.Addr]mem.Value)}
	for a, v := range p.Init {
		q.Init[a*stride] = v
	}
	for _, code := range p.Threads {
		c := slices.Clone(code)
		for i := range c {
			c[i].Addr *= stride
		}
		q.Threads = append(q.Threads, c)
	}
	return q
}

// TestSparseUniverseExploresAlike runs every machine on programs whose
// universes take the direct index and on the same programs with their
// addresses spread a million apart, which take the scan: the explorations
// must visit the same numbers of states, transitions and finals.
func TestSparseUniverseExploresAlike(t *testing.T) {
	for _, p := range commutePrograms() {
		q := spread(p, 1<<20)
		if newUniverse(p.Addrs()).index == nil || newUniverse(q.Addrs()).index != nil {
			t.Fatalf("%s: the dense and spread programs do not take the index and the scan", p.Name)
		}
		for _, f := range commuteFactories() {
			for _, mode := range []KeyMode{KeyState, KeyResult} {
				x := &Explorer{Mode: mode, MaxTraceOps: 24}
				dense, err := x.Visit(f.mk(p), func(Machine) bool { return true })
				if err != nil {
					t.Fatalf("%s on %s: %v", p.Name, f.name, err)
				}
				sparse, err := x.Visit(f.mk(q), func(Machine) bool { return true })
				if err != nil {
					t.Fatalf("spread %s on %s: %v", p.Name, f.name, err)
				}
				if dense != sparse {
					t.Errorf("%s on %s, mode %d: dense %+v, spread %+v", p.Name, f.name, mode, dense, sparse)
				}
			}
		}
	}
}
