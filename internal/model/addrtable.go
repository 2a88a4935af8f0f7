package model

import (
	"cmp"
	"encoding/binary"
	"slices"

	"weakorder/internal/mem"
)

// universe is a program's static address universe: its addresses, sorted,
// and, when they lie close enough together, a direct index from address to
// slot. A universe is built once per machine construction (newBase) and
// shared, never written, by every table of every clone.
type universe struct {
	addrs []mem.Addr
	// index[a-lo] is 1 + the slot of address a, or 0 when a is not in the
	// universe. It is nil when the addresses are too sparse for it (see
	// denseSpan); slot then scans addrs.
	lo    mem.Addr
	index []int32
}

// denseSpan bounds a direct index: a universe gets one when the span of its
// addresses, highest minus lowest plus one, is at most denseSpan entries per
// address. A sparse universe, such as two locations a million apart, is
// scanned instead of indexed by a table that is mostly holes: a scan reads
// at most as many addresses as a clone copies memory slots, and the
// universes of programs, generated ones included, hold a few addresses.
const denseSpan = 4

func newUniverse(addrs []mem.Addr) *universe {
	u := &universe{addrs: addrs}
	if len(addrs) == 0 {
		return u
	}
	lo, hi := addrs[0], addrs[len(addrs)-1]
	if span := uint64(hi-lo) + 1; span <= denseSpan*uint64(len(addrs)) {
		u.lo, u.index = lo, make([]int32, span)
		for i, a := range addrs {
			u.index[a-lo] = int32(i + 1)
		}
	}
	return u
}

// slot returns the slot of a static address, and false for an address
// outside the universe.
func (u *universe) slot(a mem.Addr) (int, bool) {
	if u.index != nil {
		if d := a - u.lo; uint64(d) < uint64(len(u.index)) && u.index[d] != 0 {
			return int(u.index[d]) - 1, true
		}
		return 0, false
	}
	for i, b := range u.addrs {
		if b >= a {
			return i, b == a
		}
	}
	return len(u.addrs), false
}

// addrTable holds one V per memory location: a dense slice over the
// program's static address universe (shared by every table of every clone),
// plus a sorted overflow for register-computed addresses outside it. A static
// location always has a slot; an overflow location has one only once it is
// set, and reads as the zero V until then.
type addrTable[V any] struct {
	u     *universe // never written
	dense []V       // dense[i] belongs to u.addrs[i]
	extra []addrEntry[V]
}

// addrEntry is one overflow slot.
type addrEntry[V any] struct {
	addr mem.Addr
	v    V
}

func newAddrTable[V any](u *universe) addrTable[V] {
	return addrTable[V]{u: u, dense: make([]V, len(u.addrs))}
}

// extraSlot returns the index of a in the overflow, or where it would be
// inserted, and whether it is present.
func (t *addrTable[V]) extraSlot(a mem.Addr) (int, bool) {
	return slices.BinarySearchFunc(t.extra, a, func(e addrEntry[V], a mem.Addr) int { return cmp.Compare(e.addr, a) })
}

// get returns the value at a; an unset overflow location reads as zero.
func (t *addrTable[V]) get(a mem.Addr) V {
	if i, ok := t.u.slot(a); ok {
		return t.dense[i]
	}
	if i, ok := t.extraSlot(a); ok {
		return t.extra[i].v
	}
	var zero V
	return zero
}

// set stores v at a, giving an overflow location its slot on first use.
func (t *addrTable[V]) set(a mem.Addr, v V) {
	if i, ok := t.u.slot(a); ok {
		t.dense[i] = v
		return
	}
	if i, ok := t.extraSlot(a); ok {
		t.extra[i].v = v
	} else {
		t.extra = slices.Insert(t.extra, i, addrEntry[V]{addr: a, v: v})
	}
}

// len returns the number of slots: the static universe plus the overflow
// locations set so far.
func (t *addrTable[V]) len() int { return len(t.dense) + len(t.extra) }

// at returns slot i in canonical order: the static universe in address
// order, then the overflow in address order.
func (t *addrTable[V]) at(i int) (mem.Addr, V) {
	if i < len(t.dense) {
		return t.u.addrs[i], t.dense[i]
	}
	e := t.extra[i-len(t.dense)]
	return e.addr, e.v
}

// setAt stores v in slot i (see at).
func (t *addrTable[V]) setAt(i int, v V) {
	if i < len(t.dense) {
		t.dense[i] = v
	} else {
		t.extra[i-len(t.dense)].v = v
	}
}

// slot returns a's slot (see at) and whether a has one. For an overflow
// location not yet set it returns the slot that setting it would give it.
func (t *addrTable[V]) slot(a mem.Addr) (int, bool) {
	if i, ok := t.u.slot(a); ok {
		return i, true
	}
	i, ok := t.extraSlot(a)
	return len(t.dense) + i, ok
}

// getSlot returns the value at a, given a's slot i in another table over the
// same universe. A static slot is read by index; only an overflow location,
// whose slot the two tables may number differently, is looked up.
func (t *addrTable[V]) getSlot(i int, a mem.Addr) V {
	if i < len(t.dense) {
		return t.dense[i]
	}
	return t.get(a)
}

// setSlot stores v at a, given a's slot i as for getSlot.
func (t *addrTable[V]) setSlot(i int, a mem.Addr, v V) {
	if i < len(t.dense) {
		t.dense[i] = v
	} else {
		t.set(a, v)
	}
}

// copyInto makes d an independent copy of t, writing into d's existing
// slices. The values themselves are copied by assignment, so a table of
// slices shares their backing arrays.
func (t *addrTable[V]) copyInto(d *addrTable[V]) {
	d.u = t.u
	d.dense = append(d.dense[:0], t.dense...)
	d.extra = append(d.extra[:0], t.extra...)
}

// clone returns an independent copy.
func (t *addrTable[V]) clone() addrTable[V] {
	var c addrTable[V]
	t.copyInto(&c)
	return c
}

// copyTables copies a per-processor set of tables into dst's tables and
// returns them. A dst that does not hold one table per processor is replaced
// by fresh tables whose dense slots share one allocation. Each dense slice
// is capped at its length, and tables never append to it, so the tables of a
// set cannot write into each other.
func copyTables[V any](dst, src []addrTable[V]) []addrTable[V] {
	if len(dst) != len(src) {
		dst = make([]addrTable[V], len(src))
		n := 0
		for i := range src {
			n += len(src[i].dense)
		}
		flat := make([]V, n)
		for i := range src {
			k := len(src[i].dense)
			dst[i].dense, flat = flat[:0:k], flat[k:]
		}
	}
	for i := range src {
		src[i].copyInto(&dst[i])
	}
	return dst
}

// appendMem canonically encodes a memory table: the static locations' values
// in address order, then the count-prefixed overflow, sorted by address.
func appendMem(key []byte, m *addrTable[mem.Value]) []byte {
	for _, v := range m.dense {
		key = binary.AppendVarint(key, int64(v))
	}
	key = binary.AppendUvarint(key, uint64(len(m.extra)))
	for _, e := range m.extra {
		key = binary.AppendUvarint(key, uint64(e.addr))
		key = binary.AppendVarint(key, int64(e.v))
	}
	return key
}
