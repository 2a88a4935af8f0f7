package model

import (
	"encoding/binary"
	"fmt"

	"weakorder/internal/mem"
)

// prop is one pending propagation of a committed write to one destination
// processor's copy of memory.
type prop struct {
	seq   int64 // global commit order of the originating write
	src   int
	dst   int
	addr  mem.Addr
	value mem.Value
}

// copies is the shared substrate of the WeakOrdered machines (NonAtomic,
// WODef1, WODef2): every processor owns a full copy of memory; a write
// commits by updating the writer's copy and becomes globally performed once
// its propagations have reached every other copy. Writes to the same location
// are serialized by commit order (condition 2 of Section 5.1): a stale
// propagation arriving after a newer write never overwrites it, mirroring a
// real invalidation-based protocol in which the stale write's line would have
// been invalidated.
type copies struct {
	nproc   int
	data    []addrTable[mem.Value]
	stamp   []addrTable[int64] // per copy: commit seq of last applied write per addr
	pending []prop
	nextSeq int64
	// outstanding counts, per source processor, propagations not yet
	// delivered — the Section-5.3 counter ("a positive value indicates the
	// number of outstanding accesses").
	outstanding []int
	// window bounds outstanding per processor, modeling finite miss/buffer
	// resources (cf. the paper's bounded number of cache misses while a
	// line is reserved). Besides realism, the bound keeps spin loops from
	// generating unboundedly long pending lists, which would make the
	// explored state space infinite.
	window int
	// masks is propMasks' scratch: storage, not state, so never copied.
	masks []propMask
}

// DefaultWindow is the per-processor bound on outstanding (committed but not
// globally performed) writes in the copies-based machines.
const DefaultWindow = 8

func newCopies(nproc int, init addrTable[mem.Value]) *copies {
	c := &copies{nproc: nproc, outstanding: make([]int, nproc), window: DefaultWindow}
	for p := 0; p < nproc; p++ {
		c.data = append(c.data, init.clone())
		c.stamp = append(c.stamp, newAddrTable[int64](init.u))
	}
	return c
}

// canCommit reports whether processor p has window room for another
// committed-but-unperformed write (which enqueues nproc-1 propagations).
func (c *copies) canCommit(p int) bool {
	return c.outstanding[p]+(c.nproc-1) <= c.window*(c.nproc-1)
}

// copyInto makes d (allocated when nil) an independent copy of c, writing
// into d's existing slices, and returns it.
func (c *copies) copyInto(d *copies) *copies {
	if d == nil {
		d = new(copies)
	}
	d.nproc = c.nproc
	d.data = copyTables(d.data, c.data)
	d.stamp = copyTables(d.stamp, c.stamp)
	d.pending = append(d.pending[:0], c.pending...)
	d.nextSeq = c.nextSeq
	d.outstanding = append(d.outstanding[:0], c.outstanding...)
	d.window = c.window
	return d
}

// read returns processor p's view of addr.
func (c *copies) read(p int, a mem.Addr) mem.Value { return c.data[p].get(a) }

// commitWrite commits a write by processor p: p's own copy updates
// immediately; propagations to every other copy are enqueued. Returns the
// commit sequence number.
func (c *copies) commitWrite(p int, a mem.Addr, v mem.Value) int64 {
	c.nextSeq++
	seq := c.nextSeq
	c.data[p].set(a, v)
	c.stamp[p].set(a, seq)
	for q := 0; q < c.nproc; q++ {
		if q == p {
			continue
		}
		c.pending = append(c.pending, prop{seq: seq, src: p, dst: q, addr: a, value: v})
		c.outstanding[p]++
	}
	return seq
}

// atomicWrite applies a write to every copy at once (used for strongly
// ordered synchronization operations, whose line the issuer holds exclusively
// so that commit and global performance coincide).
func (c *copies) atomicWrite(p int, a mem.Addr, v mem.Value) {
	c.nextSeq++
	for q := 0; q < c.nproc; q++ {
		c.data[q].set(a, v)
		c.stamp[q].set(a, c.nextSeq)
	}
}

// deliverable reports whether pending[i] may be delivered now: it must be the
// oldest pending propagation for its (dst, addr) pair so that each copy
// observes same-location writes in commit order.
func (c *copies) deliverable(i int) bool {
	m := c.pending[i]
	for j := range c.pending {
		o := c.pending[j]
		if o.dst == m.dst && o.addr == m.addr && o.seq < m.seq {
			return false
		}
	}
	return true
}

// deliver applies pending propagation with the given seq/dst, dropping it if
// a newer same-location write already reached the destination, and returns
// its source processor.
func (c *copies) deliver(seq int64, dst int) (int, error) {
	for i := range c.pending {
		m := c.pending[i]
		if m.seq != seq || m.dst != dst {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		if c.stamp[dst].get(m.addr) < m.seq {
			c.data[dst].set(m.addr, m.value)
			c.stamp[dst].set(m.addr, m.seq)
		}
		c.outstanding[m.src]--
		return m.src, nil
	}
	return -1, fmt.Errorf("copies: no pending propagation seq=%d dst=%d", seq, dst)
}

// drained reports whether processor p has no outstanding propagations, i.e.
// all its committed writes are globally performed (the counter reads zero).
func (c *copies) drained(p int) bool { return c.outstanding[p] == 0 }

// allDrained reports whether nothing is pending anywhere.
func (c *copies) allDrained() bool { return len(c.pending) == 0 }

// appendKey canonically encodes the substrate state. Raw sequence numbers
// are excluded (they differ between equivalent states reached along
// different paths); what delivery semantics actually depend on is, per
// pending propagation, (a) its position among pending propagations for the
// same destination and address — deliverable() and the stale-drop rule never
// compare propagations across (dst, addr) pairs — and (b) whether it is
// still "live" (its seq exceeds the destination's current stamp, so it will
// apply rather than be dropped). Propagations are therefore encoded grouped:
// stable-sorted by (dst, addr), preserving only the in-group commit order.
// The cross-group interleaving the list order records is not state; keeping
// it out of the key makes commit steps of different processors commute at
// the key level, which the partial-order reducer relies on.
func (c *copies) appendKey(key []byte) []byte {
	for p := range c.data {
		key = appendMem(key, &c.data[p])
	}
	key = append(key, 'P')
	key = binary.AppendUvarint(key, uint64(len(c.pending)))
	var buf [64]int32
	idx := stableOrder(buf[:0], len(c.pending), func(a, b int32) bool {
		x, y := &c.pending[a], &c.pending[b]
		if x.dst != y.dst {
			return x.dst < y.dst
		}
		return x.addr < y.addr
	})
	for _, i := range idx {
		m := &c.pending[i]
		live := byte(0)
		if m.seq > c.stamp[m.dst].get(m.addr) {
			live = 1
		}
		key = binary.AppendUvarint(key, uint64(m.src))
		key = binary.AppendUvarint(key, uint64(m.dst))
		key = binary.AppendUvarint(key, uint64(m.addr))
		key = binary.AppendVarint(key, int64(m.value))
		key = append(key, live)
	}
	return key
}

// propMask is the address footprint of one processor's pending propagations.
type propMask struct {
	bits uint64
	wild bool
}

// propMasks returns, per source processor, the addresses of its undelivered
// propagations (wild when an address has no dense bit). The result is
// scratch, valid until the next call.
func (c *copies) propMasks(bitOf func(mem.Addr) (uint64, bool)) []propMask {
	if cap(c.masks) < c.nproc {
		c.masks = make([]propMask, c.nproc)
	}
	masks := c.masks[:c.nproc]
	clear(masks)
	for _, m := range c.pending {
		if bit, ok := bitOf(m.addr); ok {
			masks[m.src].bits |= bit
		} else {
			masks[m.src].wild = true
		}
	}
	return masks
}
