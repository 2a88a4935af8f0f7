package model

import (
	"encoding/binary"
	"fmt"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// bufferDepth is the write-buffer capacity: a processor stalls issuing
// further writes once this many are pending. Finite depth matches real
// hardware and keeps spin-loop state spaces bounded.
const bufferDepth = 8

// wbEntry is one buffered write awaiting retirement to memory.
type wbEntry struct {
	addr    mem.Addr
	value   mem.Value
	opIndex int
}

// copyBuffers copies per-processor write buffers into dst's buffers and
// returns them. A dst that does not hold one buffer per processor is
// replaced by fresh buffers sharing one allocation. Each fresh buffer is
// capped at its length, so an append reallocates instead of writing into its
// neighbour.
func copyBuffers(dst, src [][]wbEntry) [][]wbEntry {
	if len(dst) != len(src) {
		dst = make([][]wbEntry, len(src))
		n := 0
		for _, b := range src {
			n += len(b)
		}
		flat := make([]wbEntry, n)
		for i, b := range src {
			dst[i], flat = flat[:0:len(b)], flat[len(b):]
		}
	}
	for i, b := range src {
		dst[i] = append(dst[i][:0], b...)
	}
	return dst
}

// WriteBuffer models a shared-bus system (with or without per-processor
// caches kept coherent by the bus) in which each processor retires writes
// through a FIFO write buffer while reads are allowed to pass buffered
// writes — the relaxation Figure 1 names for configurations 1 and 3. A read
// forwards from the newest buffered write to the same address (preserving
// uniprocessor dependencies, condition 1 of Section 5.1); otherwise it reads
// memory directly, possibly ahead of older buffered writes.
//
// Synchronization operations drain the buffer first and then execute
// atomically, so the machine is strongly ordered at synchronization — it is
// the classic processor-consistent/TSO-like hardware that violates plain SC
// on Dekker-style races but appears SC to DRF0 programs.
type WriteBuffer struct {
	base
	memory  addrTable[mem.Value]
	buffers [][]wbEntry
	// delays, when non-nil, holds per thread a map from op index to the
	// earlier op indices that must have retired first — the enforcement
	// half of Shasha & Snir's delay-set analysis (internal/delayset). Only
	// buffered writes can be unretired on this machine, so the gate checks
	// the buffer.
	delays []map[int][]int
}

// NewWriteBuffer builds the machine. name lets Figure-1 configurations 1 and
// 3 (without/with caches) present themselves distinctly; pass "" for the
// default.
func NewWriteBuffer(p *program.Program, name string) *WriteBuffer {
	if name == "" {
		name = "bus+writebuffer"
	}
	m := &WriteBuffer{
		base:    newBase(name, p),
		buffers: make([][]wbEntry, p.NumThreads()),
	}
	m.memory = m.initialMemory()
	return m
}

// NewWriteBufferDelays builds a write-buffer machine that additionally
// enforces a delay set: delays[t][k] lists the op indices of thread t that
// must have retired from the buffer before op k may issue. With the delay set
// computed by internal/delayset, the machine appears sequentially consistent
// to the analyzed program (Shasha & Snir's guarantee).
func NewWriteBufferDelays(p *program.Program, delays []map[int][]int) *WriteBuffer {
	m := NewWriteBuffer(p, "bus+writebuffer+delays")
	m.delays = delays
	return m
}

// delayBlocked reports whether thread p's pending op (at its current op
// index) must wait for a delayed predecessor still sitting in the buffer.
func (m *WriteBuffer) delayBlocked(p int) bool {
	if m.delays == nil || p >= len(m.delays) {
		return false
	}
	befores := m.delays[p][m.threads[p].OpIndex]
	for _, u := range befores {
		for _, e := range m.buffers[p] {
			if e.opIndex == u {
				return true
			}
		}
	}
	return false
}

// Clone implements Machine.
func (m *WriteBuffer) Clone() Machine { return m.CloneInto(nil) }

// CloneInto implements Machine.
func (m *WriteBuffer) CloneInto(dst Machine) Machine {
	d, _ := dst.(*WriteBuffer)
	if d == nil {
		d = new(WriteBuffer)
	}
	m.copyBase(&d.base)
	m.memory.copyInto(&d.memory)
	d.buffers = copyBuffers(d.buffers, m.buffers)
	d.delays = m.delays // immutable after construction: share, don't copy
	return d
}

// Transitions implements Machine.
func (m *WriteBuffer) Transitions(ts []Transition) []Transition {
	for p := range m.threads {
		if len(m.buffers[p]) > 0 {
			ts = append(ts, Transition{Kind: TDrain, Proc: p})
		}
		req, ok, err := m.pending(p)
		if err != nil || !ok {
			continue
		}
		if req.Op.IsSync() && len(m.buffers[p]) > 0 {
			// A synchronization operation waits for the buffer to drain; it
			// is not an enabled execution step yet.
			continue
		}
		if req.Op == mem.OpWrite && len(m.buffers[p]) >= bufferDepth {
			continue // buffer full: the processor stalls until a drain
		}
		if m.delayBlocked(p) {
			continue // delay-set enforcement: a predecessor must retire first
		}
		ts = append(ts, Transition{Kind: TExec, Proc: p})
	}
	return ts
}

// Apply implements Machine.
func (m *WriteBuffer) Apply(t Transition) error {
	switch t.Kind {
	case TDrain:
		if len(m.buffers[t.Proc]) == 0 {
			return fmt.Errorf("writebuffer: P%d drain with empty buffer", t.Proc)
		}
		e := m.buffers[t.Proc][0]
		m.buffers[t.Proc] = m.buffers[t.Proc][1:]
		m.memory.set(e.addr, e.value)
		m.record(t.Proc, e.opIndex, program.Request{Op: mem.OpWrite, Addr: e.addr, Data: e.value}, 0, e.value)
		return nil
	case TExec:
		req, ok, err := m.pending(t.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("writebuffer: P%d has no pending operation", t.Proc)
		}
		switch {
		case req.Op == mem.OpWrite:
			// Enqueue; the thread proceeds immediately. The write is
			// recorded when it retires (its completion point).
			m.buffers[t.Proc] = append(m.buffers[t.Proc], wbEntry{
				addr: req.Addr, value: req.Data, opIndex: m.threads[t.Proc].OpIndex,
			})
			m.threads[t.Proc].Resolve(0)
			return nil
		case req.Op == mem.OpRead:
			// Forward from the newest buffered write to the same address,
			// else bypass the buffer and read memory.
			v, found := mem.Value(0), false
			for i := len(m.buffers[t.Proc]) - 1; i >= 0; i-- {
				if m.buffers[t.Proc][i].addr == req.Addr {
					v, found = m.buffers[t.Proc][i].value, true
					break
				}
			}
			if !found {
				v = m.memory.get(req.Addr)
			}
			m.resolve(t.Proc, req, v, 0)
			return nil
		default:
			// Synchronization: buffer already drained (Transitions gates
			// this); execute atomically against memory.
			if len(m.buffers[t.Proc]) > 0 {
				return fmt.Errorf("writebuffer: sync op with non-empty buffer on P%d", t.Proc)
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
		return fmt.Errorf("writebuffer: unexpected transition %s", t)
	}
}

// Done implements Machine.
func (m *WriteBuffer) Done() bool {
	if !m.threadsDone() {
		return false
	}
	for _, b := range m.buffers {
		if len(b) > 0 {
			return false
		}
	}
	return true
}

// AppendKey implements Machine.
func (m *WriteBuffer) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	key = append(key, 'M')
	key = appendMem(key, &m.memory)
	key = append(key, 'B')
	for _, b := range m.buffers {
		key = binary.AppendUvarint(key, uint64(len(b)))
		for _, e := range b {
			key = binary.AppendUvarint(key, uint64(e.addr))
			key = binary.AppendVarint(key, int64(e.value))
			key = binary.AppendUvarint(key, uint64(e.opIndex))
		}
	}
	return key
}

// StepInfo implements Machine. A drain retires the head buffered write, an
// access by the buffering processor (its agent): draining is only gated by
// the processor's own buffer, so every step of an agent is enabled or
// waitable on the agent itself.
func (m *WriteBuffer) StepInfo(t Transition) explore.Info {
	if t.Kind == TDrain {
		if b := m.buffers[t.Proc]; len(b) > 0 {
			info := explore.Info{Agent: t.Proc, Addr: b[0].addr, Op: mem.OpWrite}
			info.AddrBit, _ = m.fpAddrBit(b[0].addr)
			return info
		}
		return explore.Info{Agent: t.Proc, Opaque: true}
	}
	return m.execInfo(t.Proc)
}

// Footprints implements Machine: each processor's static suffix plus the
// writes still sitting in its buffer. Wake footprints stay empty — every
// enabling gate (buffer room, sync drain, delay sets) depends on the
// processor's own buffer alone.
func (m *WriteBuffer) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	base := len(buf)
	buf = m.appendThreadFootprints(buf)
	for p, b := range m.buffers {
		fp := &buf[base+p].Future
		for _, e := range b {
			if bit, ok := m.fpAddrBit(e.addr); ok {
				fp.Writes |= bit
			} else {
				fp.Wild = true
			}
		}
	}
	return buf
}

// Final implements Machine.
func (m *WriteBuffer) Final() *program.FinalState { return m.finalState(&m.memory) }

// Result implements Machine.
func (m *WriteBuffer) Result() mem.Result { return m.result(&m.memory) }

// AppendResultKey implements Machine.
func (m *WriteBuffer) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.memory) }
