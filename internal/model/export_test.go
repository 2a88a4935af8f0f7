package model

import "weakorder/internal/mem"

// KeyFull is keyFull, for the external tests that compare the two key forms.
const KeyFull = keyFull

// ResultOf is the oracle of the machines' result keys: the Result of a
// machine assembled as maps from its read chains and memory view, without the
// key encoder. Its Key must equal what AppendResultKey renders, and
// mem.ParseResultKey must decode that key back to it.
func ResultOf(m Machine) mem.Result {
	switch m := m.(type) {
	case *SC:
		return m.result(&m.memory)
	case *Relaxed:
		return m.result(&m.memory)
	case *WeakOrdered:
		return m.result(&m.c.data[0])
	}
	panic("model: ResultOf of an unknown machine")
}

// result assembles the paper's Result from the read history and a memory
// view.
func (b *base) result(memory *addrTable[mem.Value]) mem.Result {
	reads := 0
	for _, rc := range b.reads {
		if rc.last != nil {
			reads += int(rc.last.reads)
		}
	}
	r := mem.Result{Reads: make(map[mem.ReadKey]mem.Value, reads), Final: make(map[mem.Addr]mem.Value, memory.len())}
	for p := range b.reads {
		for rd := b.reads[p].last; rd != nil; rd = rd.prevRead {
			r.Reads[mem.ReadKey{Proc: mem.ProcID(p), Index: int(rd.opIndex)}] = rd.acc.Value
		}
	}
	for i := 0; i < memory.len(); i++ {
		a, v := memory.at(i)
		r.Final[a] = v
	}
	return r
}
