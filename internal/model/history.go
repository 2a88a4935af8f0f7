package model

import (
	"encoding/binary"

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
	acc     mem.Access
	opIndex int // program-order index of the access on its processor
	// prev is the previous completed access, prevRead (reads only) the same
	// processor's previous read, and prevSync the previous synchronization
	// access of any processor.
	prev, prevRead, prevSync *histNode
	// n, reads and syncs count, up to and including this access: every
	// access, this processor's reads (reads only), and every sync.
	n, reads, syncs int
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
	h := &histNode{acc: a, opIndex: opIdx, prev: b.hist, n: 1}
	if prev := b.hist; prev != nil {
		h.n = prev.n + 1
		h.prevSync, h.syncs = b.lastSync(), prev.syncs
	}
	if a.IsSync() {
		h.syncs++
	}
	if a.Op.Reads() {
		h.prevRead, h.reads = b.lastRead[p], 1
		if h.prevRead != nil {
			h.reads = h.prevRead.reads + 1
		}
		b.lastRead[p] = h
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
	return b.hist.n
}

// Trace implements Machine: it builds a fresh execution from the history.
func (b *base) Trace() *mem.Execution {
	e := mem.NewExecution(len(b.threads))
	n := b.TraceLen()
	e.Events = make([]mem.Event, n)
	e.Completed = make([]mem.EventID, n)
	for h := b.hist; h != nil; h = h.prev {
		n--
		e.Events[n] = mem.Event{ID: mem.EventID(n), Index: h.opIndex, Access: h.acc}
		e.Completed[n] = mem.EventID(n)
	}
	return e
}

// appendKeyBase encodes the thread states plus, per mode, read and sync
// history. Thread snapshots are self-delimiting varint sequences, and each
// history section is count-prefixed and lists its accesses newest first, so
// the whole encoding is prefix-free for a fixed program.
func (b *base) appendKeyBase(mode KeyMode, key []byte) []byte {
	for i := range b.threads {
		key = b.threads[i].AppendSnapshot(key)
	}
	if mode >= KeyResult {
		key = append(key, 'R')
		for _, r := range b.lastRead {
			if r == nil {
				key = append(key, 0)
				continue
			}
			key = binary.AppendUvarint(key, uint64(r.reads))
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
		for ; s != nil; s = s.prevSync {
			key = binary.AppendUvarint(key, uint64(s.acc.Proc))
			key = binary.AppendUvarint(key, uint64(s.opIndex))
			key = binary.AppendUvarint(key, uint64(s.acc.Addr))
		}
	}
	return key
}
