package model

import (
	"encoding/binary"

	"weakorder/internal/digest"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// histNode is one completed access of a machine's execution history. The
// history is the chain of nodes behind the machine's newest one. A clone
// shares the chain by pointer, and the states it branches into link new
// nodes onto the shared prefix, so cloning costs nothing per recorded
// access. Nodes are never written after they are linked: the parallel
// exploration kernel reads one chain from several workers.
type histNode struct {
	acc mem.Access
	// prev is the previous completed access, prevRead (reads only) the same
	// processor's previous read, and prevSync the previous synchronization
	// access of any processor.
	prev, prevRead, prevSync *histNode
	// opIndex is the program-order index of the access on its processor.
	// n, reads and syncs count, up to and including this access: every
	// access, this processor's reads (reads only), and every sync. They are
	// int32, which keeps a node, allocated for nearly every step explored,
	// in the 80-byte size class; no history nears 2^31 accesses.
	opIndex, n, reads, syncs int32
}

// readChain is one processor's read history: its newest read, and the digest
// of the chain behind it (see chainSum).
type readChain struct {
	last *histNode
	sum  digest.Sum
}

// chainSum extends a chain digest by one node: it is the digest of the
// previous digest followed by the node's fields. A chain's digest is thus
// computed once per node, as the node is linked, and is a function of the
// chain's contents alone, whatever path of states linked it.
func chainSum(prev digest.Sum, f0, f1, f2 uint64) digest.Sum {
	var b [digest.Size + 24]byte
	copy(b[:], prev[:])
	binary.LittleEndian.PutUint64(b[digest.Size:], f0)
	binary.LittleEndian.PutUint64(b[digest.Size+8:], f1)
	binary.LittleEndian.PutUint64(b[digest.Size+16:], f2)
	return digest.Sum128(b[:])
}

// record appends a completed access to the history. opIdx is the access's
// program-order index on its processor; machines that complete operations
// out of program order (e.g. a write draining from a buffer after later
// reads resolved) must capture it at issue time.
func (b *base) record(p, opIdx int, req program.Request, readVal, writeVal mem.Value) {
	a := mem.Access{Proc: mem.ProcID(p), Op: req.Op, Addr: req.Addr}
	switch {
	case req.Op == mem.OpSyncRMW:
		a.Value = readVal
		a.WValue = writeVal
	case req.Op.Writes():
		a.Value = writeVal
	default:
		a.Value = readVal
	}
	h := &histNode{acc: a, opIndex: int32(opIdx), prev: b.hist, n: 1}
	if prev := b.hist; prev != nil {
		h.n = prev.n + 1
		h.prevSync, h.syncs = b.lastSync(), prev.syncs
	}
	if a.IsSync() {
		h.syncs++
		b.syncSum = chainSum(b.syncSum, uint64(p), uint64(opIdx), uint64(a.Addr))
	}
	if a.Op.Reads() {
		rc := &b.reads[p]
		h.prevRead, h.reads = rc.last, 1
		if h.prevRead != nil {
			h.reads = h.prevRead.reads + 1
		}
		rc.last = h
		rc.sum = chainSum(rc.sum, uint64(opIdx), uint64(a.Value), 0)
	}
	b.hist = h
}

// lastSync returns the newest synchronization access, or nil.
func (b *base) lastSync() *histNode {
	if b.hist == nil || b.hist.acc.IsSync() {
		return b.hist
	}
	return b.hist.prevSync
}

// TraceLen implements Machine.
func (b *base) TraceLen() int {
	if b.hist == nil {
		return 0
	}
	return int(b.hist.n)
}

// Trace implements Machine: it builds a fresh execution from the history.
func (b *base) Trace() *mem.Execution {
	e := mem.NewExecution(len(b.threads))
	n := b.TraceLen()
	e.Events = make([]mem.Event, n)
	e.Completed = make([]mem.EventID, n)
	for h := b.hist; h != nil; h = h.prev {
		n--
		e.Events[n] = mem.Event{ID: mem.EventID(n), Index: int(h.opIndex), Access: h.acc}
		e.Completed[n] = mem.EventID(n)
	}
	return e
}

// appendKeyBase encodes the thread states plus, per mode, read and sync
// history. Thread snapshots are self-delimiting varint sequences of a fixed
// register count per thread, and each history section is count-prefixed, so
// the whole encoding is prefix-free for a fixed program.
//
// A history section holds, per chain, its length and its digest, which
// record keeps up to date: so a key costs the same at any history length.
// Under keyFull the section instead lists the chain's accesses newest first,
// and every snapshot renders all program.NumRegs registers; the two forms
// tell the same states apart (see keyFull).
func (b *base) appendKeyBase(mode KeyMode, key []byte) []byte {
	full := mode&keyFull != 0
	mode &^= keyFull
	for i := range b.threads {
		regs := b.regs[i]
		if full {
			regs = program.NumRegs
		}
		key = b.threads[i].AppendSnapshot(key, regs)
	}
	if mode >= KeyResult {
		key = append(key, 'R')
		for _, rc := range b.reads {
			r := rc.last
			if r == nil {
				key = append(key, 0)
				continue
			}
			key = binary.AppendUvarint(key, uint64(r.reads))
			if !full {
				key = append(key, rc.sum[:]...)
				continue
			}
			for ; r != nil; r = r.prevRead {
				key = binary.AppendUvarint(key, uint64(r.opIndex))
				key = binary.AppendVarint(key, int64(r.acc.Value))
			}
		}
	}
	if mode >= KeyExecution {
		key = append(key, 'S')
		s := b.lastSync()
		if s == nil {
			return append(key, 0)
		}
		key = binary.AppendUvarint(key, uint64(s.syncs))
		if !full {
			return append(key, b.syncSum[:]...)
		}
		for ; s != nil; s = s.prevSync {
			key = binary.AppendUvarint(key, uint64(s.acc.Proc))
			key = binary.AppendUvarint(key, uint64(s.opIndex))
			key = binary.AppendUvarint(key, uint64(s.acc.Addr))
		}
	}
	return key
}
