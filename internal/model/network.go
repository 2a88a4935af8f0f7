package model

import (
	"encoding/binary"
	"fmt"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// netMsg is one access in flight between a processor and a memory module.
type netMsg struct {
	seq     int // issue order, for per-(proc,addr) FIFO and determinism
	proc    int
	isRead  bool
	addr    mem.Addr
	value   mem.Value // data for writes
	opIndex int
}

// Network models a system with a general interconnection network and no
// caches (Figure 1, configuration 2): every processor issues its accesses in
// program order, but requests to *different* memory modules may arrive in any
// order. Writes are fire-and-forget; a read blocks its issuer until the
// memory module answers (the processor needs the value), so the interesting
// relaxation is a read overtaking an older write to a different location.
// Same-processor accesses to the same location stay ordered (one module, one
// queue), which preserves uniprocessor dependences.
//
// Synchronization operations are strongly ordered: a processor may issue one
// only when it has nothing in flight, and it executes atomically at memory.
type Network struct {
	base
	memory   addrTable[mem.Value]
	inflight []netMsg
	nextSeq  int
	// waiting marks processors blocked on an in-flight read.
	waiting []bool
}

// NewNetwork builds the machine.
func NewNetwork(p *program.Program) *Network {
	m := &Network{
		base:    newBase("network-nocache", p),
		waiting: make([]bool, p.NumThreads()),
	}
	m.memory = m.initialMemory()
	return m
}

// Behavior implements Machine.
func (m *Network) Behavior() Behavior { return Behavior{kind: kindNetwork} }

// CloneInto implements Machine.
func (m *Network) CloneInto(dst Machine) Machine {
	d, _ := dst.(*Network)
	if d == nil {
		d = new(Network)
	}
	m.copyBase(&d.base)
	m.memory.copyInto(&d.memory)
	d.inflight = append(d.inflight[:0], m.inflight...)
	d.nextSeq = m.nextSeq
	d.waiting = append(d.waiting[:0], m.waiting...)
	return d
}

// deliverable reports whether inflight[i] is the oldest in-flight message of
// its (proc, addr) pair — the per-module FIFO constraint.
func (m *Network) deliverable(i int) bool {
	msg := m.inflight[i]
	for j := range m.inflight {
		o := m.inflight[j]
		if o.proc == msg.proc && o.addr == msg.addr && o.seq < msg.seq {
			return false
		}
	}
	return true
}

// hasInflight reports whether processor p has any message in flight.
func (m *Network) hasInflight(p int) bool {
	for _, msg := range m.inflight {
		if msg.proc == p {
			return true
		}
	}
	return false
}

// Transitions implements Machine. Deliveries act for the issuing processor:
// all of an agent's gates (per-module FIFO, in-flight caps, read blocking,
// sync quiescence) wait only on the agent's own deliveries.
func (m *Network) Transitions(ts []explore.Step) []explore.Step {
	for i := range m.inflight {
		if m.deliverable(i) {
			msg := &m.inflight[i]
			op := mem.OpWrite
			if msg.isRead {
				op = mem.OpRead
			}
			ts = append(ts, m.step(TDeliver, msg.proc, int64(msg.seq), msg.proc, msg.addr, op))
		}
	}
	for p := range m.threads {
		if m.waiting[p] {
			continue
		}
		req, ok, err := m.pending(p)
		if err != nil || !ok {
			continue
		}
		if req.Op.IsSync() && m.hasInflight(p) {
			continue
		}
		if req.Op == mem.OpWrite && m.inflightCount(p) >= maxInflight {
			continue // finite request buffering per processor
		}
		ts = append(ts, m.execStep(p, req))
	}
	return ts
}

// maxInflight bounds a processor's simultaneously in-flight requests.
const maxInflight = 8

// inflightCount counts processor p's in-flight messages.
func (m *Network) inflightCount(p int) int {
	n := 0
	for _, msg := range m.inflight {
		if msg.proc == p {
			n++
		}
	}
	return n
}

// findMsg locates an in-flight message by its seq.
func (m *Network) findMsg(seq int) (int, bool) {
	for i := range m.inflight {
		if m.inflight[i].seq == seq {
			return i, true
		}
	}
	return 0, false
}

// Apply implements Machine.
func (m *Network) Apply(t explore.Step) error {
	switch t.Kind {
	case TDeliver:
		i, ok := m.findMsg(int(t.Aux))
		if !ok {
			return fmt.Errorf("network: no in-flight message with seq %d", t.Aux)
		}
		msg := m.inflight[i]
		m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
		if msg.isRead {
			v := m.memory.get(msg.addr)
			req := program.Request{Op: mem.OpRead, Addr: msg.addr}
			m.record(msg.proc, msg.opIndex, req, v, 0)
			m.waiting[msg.proc] = false
			m.threads[msg.proc].Resolve(v)
			return nil
		}
		m.memory.set(msg.addr, msg.value)
		m.record(msg.proc, msg.opIndex, program.Request{Op: mem.OpWrite, Addr: msg.addr, Data: msg.value}, 0, msg.value)
		return nil
	case TExec:
		if m.waiting[t.Proc] {
			return fmt.Errorf("network: P%d is blocked on a read", t.Proc)
		}
		req, ok, err := m.pending(t.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("network: P%d has no pending operation", t.Proc)
		}
		switch {
		case req.Op == mem.OpWrite:
			m.nextSeq++
			m.inflight = append(m.inflight, netMsg{
				seq: m.nextSeq, proc: t.Proc, addr: req.Addr, value: req.Data,
				opIndex: m.threads[t.Proc].OpIndex,
			})
			m.threads[t.Proc].Resolve(0)
			return nil
		case req.Op == mem.OpRead:
			m.nextSeq++
			m.inflight = append(m.inflight, netMsg{
				seq: m.nextSeq, proc: t.Proc, isRead: true, addr: req.Addr,
				opIndex: m.threads[t.Proc].OpIndex,
			})
			m.waiting[t.Proc] = true
			return nil
		default:
			if m.hasInflight(t.Proc) {
				return fmt.Errorf("network: sync op on P%d with messages in flight", t.Proc)
			}
			old := m.memory.get(req.Addr)
			var wv mem.Value
			if req.Op.Writes() {
				wv = req.NewValue(old)
				m.memory.set(req.Addr, wv)
			}
			m.resolve(t.Proc, req, old, wv)
			return nil
		}
	default:
		return fmt.Errorf("network: unexpected transition %s", t)
	}
}

// Done implements Machine.
func (m *Network) Done() bool { return len(m.inflight) == 0 && m.threadsDone() }

// AppendKey implements Machine.
func (m *Network) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	key = append(key, 'M')
	key = appendMem(key, &m.memory)
	key = append(key, 'F')
	key = binary.AppendUvarint(key, uint64(len(m.inflight)))
	// Canonical grouped encoding: messages sorted by (proc, addr) with the
	// in-group (per-module FIFO) order preserved. The machine's behavior
	// depends only on each (proc, addr) subsequence — deliverable() never
	// compares messages across groups — so the cross-group interleaving the
	// list order records is not state and must not reach the key, or issue
	// steps of different processors would fail to commute at the key level.
	var buf [64]int32
	idx := stableOrder(buf[:0], len(m.inflight), func(a, b int32) bool {
		x, y := &m.inflight[a], &m.inflight[b]
		if x.proc != y.proc {
			return x.proc < y.proc
		}
		return x.addr < y.addr
	})
	for _, i := range idx {
		msg := m.inflight[i]
		r := byte('w')
		if msg.isRead {
			r = 'r'
		}
		key = append(key, r)
		key = binary.AppendUvarint(key, uint64(msg.proc))
		key = binary.AppendUvarint(key, uint64(msg.addr))
		key = binary.AppendVarint(key, int64(msg.value))
		key = binary.AppendUvarint(key, uint64(msg.opIndex))
	}
	return key
}

// Footprints implements Machine: each processor's static suffix plus its
// in-flight accesses. Wake footprints stay empty — every enabling gate
// (per-module FIFO, the in-flight cap, read blocking, sync quiescence)
// depends only on the processor's own in-flight messages.
func (m *Network) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	base := len(buf)
	buf = m.appendThreadFootprints(buf)
	for _, msg := range m.inflight {
		fp := &buf[base+msg.proc].Future
		bit, ok := m.fpAddrBit(msg.addr)
		if !ok {
			fp.Wild = true
			continue
		}
		if msg.isRead {
			fp.Reads |= bit
		} else {
			fp.Writes |= bit
		}
	}
	return buf
}

// Final implements Machine.
func (m *Network) Final() *program.FinalState { return m.finalState(&m.memory) }

// AppendResultKey implements Machine.
func (m *Network) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.memory) }
