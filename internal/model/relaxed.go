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

// wbEntry is one buffered write awaiting retirement to memory, or, on the
// network machine, a queued read awaiting memory's value.
type wbEntry struct {
	addr    mem.Addr
	read    bool // beside the 4-byte addr, so the entry stays 24 bytes
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

// delaySet is a delay set a machine enforces (see NewWriteBufferDelays): per
// thread, a map from op index to the earlier op indices that must have
// retired first. It is immutable after construction, so clones share it.
type delaySet struct{ before []map[int][]int }

// relaxMode selects which program-order relaxations a Relaxed machine
// exhibits between synchronization operations.
type relaxMode uint8

const (
	// relaxTSO relaxes only W->R order: writes retire through a single FIFO
	// store buffer per processor while reads bypass it (forwarding from the
	// newest same-address buffered write). The classic total-store-order
	// machine, and Figure 1's bus-based write-buffer hardware.
	relaxTSO relaxMode = iota
	// relaxPSO additionally relaxes W->W order between different addresses:
	// the store buffer is FIFO per address only, so writes to distinct
	// locations retire in any order (SPARC partial store order).
	relaxPSO
	// relaxRMO additionally relaxes R->R and R->W order observationally: a
	// read may return a stale — but per-location coherent — view of memory,
	// as if the load had executed earlier than program order placed it.
	// Loads never pass their own processor's program-later stores (no load
	// speculation), so load buffering stays forbidden; the machine is
	// "RMO-ish" rather than full SPARC RMO.
	relaxRMO
	// relaxNetwork is the PSO buffer, in which a read also queues behind its
	// issuer's older writes to the location and blocks the issuer until it
	// retires with memory's value. Nothing is forwarded, so the relaxation
	// is a read overtaking an older write to another location.
	relaxNetwork
)

// Relaxed is the family of single-memory store-buffer machines covering the
// classic relaxation ladder TSO -> PSO -> RMO, and the network machine beside
// PSO. All four share one commit substrate: writes retire from per-processor
// buffers into a single global memory (writes are multi-copy atomic — every
// processor observes a retired write at the same instant), reads bind in
// program order — at issue, or on the network machine when they retire — and
// every synchronization operation first drains the issuer's buffer, then
// executes atomically against memory, then (RMO) discards any stale view —
// i.e. sync acts as a full fence, which is what makes all four weakly ordered
// with respect to DRF0 under the paper's Definition 2.
//
// The RMO staleness mechanism: memory keeps, per location, the history of
// values it has held (the per-location write serialization), and each
// processor a cursor into that history — the newest version it has observed.
// A read may return any version at or after the cursor, advancing it; the
// cursor can lag the history arbitrarily but never moves backward, so
// per-location coherence (CoRR/CoWR/CoRW/CoWW) holds while reads of
// different locations may observe global memory at different points in time.
type Relaxed struct {
	base
	mode   relaxMode
	memory addrTable[mem.Value]
	// buffers holds each processor's pending stores in issue order. TSO
	// retires strictly FIFO, the others FIFO per address only. A network
	// read entry is always its buffer's newest: its issuer issues nothing
	// until it retires.
	buffers [][]wbEntry
	// hist (RMO only) is the per-location value history: hist[a][0] is the
	// oldest version still observable by some processor and the last entry
	// always equals memory[a]. Entries below every cursor are pruned. Every
	// static location has a history; an overflow location gets one when it
	// is first read or written. Clones share the histories' arrays, so a
	// history is never written in place: appends reallocate, and pruning
	// reslices.
	hist addrTable[[]mem.Value]
	// seen (RMO only) is each processor's cursor: the index into hist[a] of
	// the newest version of a it has observed. Reads choose any index >=
	// seen[p][a].
	seen []addrTable[int]
	// delays, when non-nil, is the enforcement half of Shasha & Snir's
	// delay-set analysis (internal/delayset): an op waits until the earlier
	// ops it is delayed behind have retired. Only buffered writes can be
	// unretired, so the gate checks the buffer.
	delays *delaySet
}

// NewTSO builds the total-store-order machine.
func NewTSO(p *program.Program) *Relaxed { return newRelaxed(p, relaxTSO, "tso") }

// NewPSO builds the partial-store-order machine.
func NewPSO(p *program.Program) *Relaxed { return newRelaxed(p, relaxPSO, "pso") }

// NewRMO builds the relaxed-memory-order machine.
func NewRMO(p *program.Program) *Relaxed { return newRelaxed(p, relaxRMO, "rmo") }

// NewWriteBuffer builds Figure 1's shared-bus system, with or without
// per-processor caches kept coherent by the bus (configurations 1 and 3): each
// processor retires writes through a FIFO write buffer while reads pass
// buffered writes, and synchronization drains the buffer first. That is the
// TSO machine; name lets the two configurations present themselves
// distinctly, and "" means "bus+writebuffer".
func NewWriteBuffer(p *program.Program, name string) *Relaxed {
	if name == "" {
		name = "bus+writebuffer"
	}
	return newRelaxed(p, relaxTSO, name)
}

// NewNetwork builds Figure 1's general-network system without caches
// (configuration 2): accesses issue in program order and reach different
// memory modules in any order, one module's in order. A read blocks its
// issuer until the module answers; a sync waits for the issuer's accesses.
func NewNetwork(p *program.Program) *Relaxed { return newRelaxed(p, relaxNetwork, "network-nocache") }

// NewWriteBufferDelays builds a write-buffer machine that additionally
// enforces a delay set: delays[t][k] lists the op indices of thread t that
// must have retired from the buffer before op k may issue. With the delay set
// computed by internal/delayset, the machine appears sequentially consistent
// to the analyzed program (Shasha & Snir's guarantee).
func NewWriteBufferDelays(p *program.Program, delays []map[int][]int) *Relaxed {
	m := NewWriteBuffer(p, "bus+writebuffer+delays")
	m.delays = &delaySet{before: delays}
	return m
}

func newRelaxed(p *program.Program, mode relaxMode, name string) *Relaxed {
	m := &Relaxed{
		base:    newBase(name, p),
		mode:    mode,
		buffers: make([][]wbEntry, p.NumThreads()),
	}
	m.memory = m.initialMemory()
	if mode == relaxRMO {
		m.hist = newAddrTable[[]mem.Value](m.univ)
		for i, v := range m.memory.dense {
			m.hist.dense[i] = []mem.Value{v}
		}
		for range m.threads {
			m.seen = append(m.seen, newAddrTable[int](m.univ))
		}
	}
	return m
}

// Behavior implements Machine: the mode and the delay set, so the bus
// machines share the tso machine's identity.
func (m *Relaxed) Behavior() Behavior {
	return Behavior{kind: kindRelaxed, mode: uint8(m.mode), delays: m.delays}
}

// CloneInto implements Machine. The RMO histories' arrays are shared, never
// written; their table and the cursors are copied.
func (m *Relaxed) CloneInto(dst Machine) Machine {
	d, _ := dst.(*Relaxed)
	if d == nil {
		d = new(Relaxed)
	}
	m.copyBase(&d.base)
	d.mode = m.mode
	m.memory.copyInto(&d.memory)
	d.buffers = copyBuffers(d.buffers, m.buffers)
	m.hist.copyInto(&d.hist)
	d.seen = copyTables(d.seen, m.seen)
	d.delays = m.delays
	return d
}

// delayBlocked reports whether thread p's pending op (at its current op
// index) must wait for a delayed predecessor still sitting in the buffer.
func (m *Relaxed) delayBlocked(p int) bool {
	if m.delays == nil || p >= len(m.delays.before) {
		return false
	}
	for _, u := range m.delays.before[p][m.threads[p].OpIndex] {
		for _, e := range m.buffers[p] {
			if e.opIndex == u {
				return true
			}
		}
	}
	return false
}

// ensureHist returns the slot and the history of a, creating the history for
// an overflow location (register-indexed accesses can reach locations
// outside the static universe). Every cursor of a new history reads as 0.
// The slot indexes the cursor tables too (see addrTable.getSlot).
func (m *Relaxed) ensureHist(a mem.Addr) (int, []mem.Value) {
	i, ok := m.hist.slot(a)
	if !ok {
		m.hist.set(a, []mem.Value{m.memory.get(a)})
	}
	_, h := m.hist.at(i)
	return i, h
}

// commit applies one retired or atomic write to memory, extending the RMO
// history and advancing the writer's own cursor (a processor observes its own
// writes immediately). A write of the value the location already holds is a
// stutter: no read can distinguish the two coherence-adjacent versions, so it
// extends no history — without this collapse a spin loop of failed
// TestAndSets would grow the history (and the state space) without bound.
func (m *Relaxed) commit(p int, a mem.Addr, v mem.Value) {
	m.memory.set(a, v)
	if m.mode != relaxRMO {
		return
	}
	i, h := m.ensureHist(a)
	if v != h[len(h)-1] {
		// Capped, so the append reallocates rather than write into an
		// array a clone shares.
		h = append(h[:len(h):len(h)], v)
		m.hist.setAt(i, h)
	}
	m.seen[p].setSlot(i, a, len(h)-1)
	m.pruneHist(i)
}

// pruneHist drops the entries of history slot i below every cursor; they can
// never be observed again, and keeping them would make equivalent states
// key-distinct.
func (m *Relaxed) pruneHist(i int) {
	a, h := m.hist.at(i)
	low := len(h) - 1
	for p := range m.seen {
		low = min(low, m.seen[p].getSlot(i, a))
	}
	if low <= 0 {
		return
	}
	m.hist.setAt(i, h[low:])
	for p := range m.seen {
		m.seen[p].setSlot(i, a, m.seen[p].getSlot(i, a)-low)
	}
}

// drainIndex returns the buffer index the drain transition for (proc, addr)
// retires: the head for TSO, the oldest same-address entry otherwise.
func (m *Relaxed) drainIndex(p int, a mem.Addr) int {
	if m.mode == relaxTSO {
		if len(m.buffers[p]) > 0 {
			return 0
		}
		return -1
	}
	for i, e := range m.buffers[p] {
		if e.addr == a {
			return i
		}
	}
	return -1
}

// forwardFrom returns the newest buffered write of p to a, if any.
func (m *Relaxed) forwardFrom(p int, a mem.Addr) (mem.Value, bool) {
	for i := len(m.buffers[p]) - 1; i >= 0; i-- {
		if m.buffers[p][i].addr == a {
			return m.buffers[p][i].value, true
		}
	}
	return 0, false
}

// Transitions implements Machine. A drain retires one buffer entry, an
// access by the buffering processor (its agent); every gate (buffer room,
// sync drain, a queued read) waits on the agent's own buffer, and the RMO
// read-version choice set grows only through conflicting writes, which the
// reducer already orders. RMO read steps carry in Aux the offset from the
// reader's cursor of the history version they observe; all other steps use
// Aux 0 (TSO drains) or the drained address (other drains), so key-equal
// states enumerate identical step lists. On RMO every sync is additionally a full fence: Apply
// snaps the issuer's staleness cursors for ALL locations to the histories as
// of the fence, so the step is dependent on every other processor's write
// commits and on every other fence — more than a single-address Info can say,
// hence the Fence flag. The other modes carry no cursor state and need no
// fence axis.
func (m *Relaxed) Transitions(ts []explore.Step) []explore.Step {
	for p := range m.threads {
		switch m.mode {
		case relaxTSO:
			if b := m.buffers[p]; len(b) > 0 {
				ts = append(ts, m.step(TDrain, p, 0, p, b[0].addr, mem.OpWrite))
			}
		default:
			for i, e := range m.buffers[p] {
				if m.drainIndex(p, e.addr) == i {
					op := mem.OpWrite
					if e.read {
						op = mem.OpRead
					}
					ts = append(ts, m.step(TDrain, p, int64(e.addr), p, e.addr, op))
				}
			}
		}
		if b := m.buffers[p]; len(b) > 0 && b[len(b)-1].read {
			continue // blocked until its queued read retires
		}
		req, ok, err := m.pending(p)
		if err != nil || !ok || m.delayBlocked(p) {
			continue
		}
		exec := m.execStep(p, req)
		switch {
		case req.Op.IsSync():
			if len(m.buffers[p]) > 0 {
				continue // sync waits for the buffer to drain
			}
			exec.Fence = m.mode == relaxRMO
			ts = append(ts, exec)
		case req.Op == mem.OpWrite:
			if len(m.buffers[p]) >= bufferDepth {
				continue // buffer full: stall until a drain
			}
			ts = append(ts, exec)
		default: // OpRead
			if m.mode != relaxRMO {
				ts = append(ts, exec)
				continue
			}
			if _, fwd := m.forwardFrom(p, req.Addr); fwd {
				ts = append(ts, exec)
				continue
			}
			i, h := m.ensureHist(req.Addr)
			base := m.seen[p].getSlot(i, req.Addr)
			for off := 0; off < len(h)-base; off++ {
				exec.Aux = int64(off)
				ts = append(ts, exec)
			}
		}
	}
	return ts
}

// Apply implements Machine.
func (m *Relaxed) Apply(t explore.Step) error {
	switch t.Kind {
	case TDrain:
		i := m.drainIndex(t.Proc, mem.Addr(t.Aux))
		if i < 0 {
			return fmt.Errorf("%s: P%d drain with no matching entry (aux %d)", m.name, t.Proc, t.Aux)
		}
		e := m.buffers[t.Proc][i]
		m.buffers[t.Proc] = append(m.buffers[t.Proc][:i], m.buffers[t.Proc][i+1:]...)
		if e.read {
			v := m.memory.get(e.addr)
			m.record(t.Proc, e.opIndex, program.Request{Op: mem.OpRead, Addr: e.addr}, v, 0)
			m.threads[t.Proc].Resolve(v)
			return nil
		}
		m.commit(t.Proc, e.addr, e.value)
		m.record(t.Proc, e.opIndex, program.Request{Op: mem.OpWrite, Addr: e.addr, Data: e.value}, 0, e.value)
		return nil
	case TExec:
		req, ok, err := m.pending(t.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: P%d has no pending operation", m.name, t.Proc)
		}
		switch {
		case req.Op == mem.OpWrite:
			m.buffers[t.Proc] = append(m.buffers[t.Proc], wbEntry{
				addr: req.Addr, value: req.Data, opIndex: m.threads[t.Proc].OpIndex,
			})
			m.threads[t.Proc].Resolve(0)
			return nil
		case req.Op == mem.OpRead && m.mode == relaxNetwork:
			// Queued unresolved; the thread stays at the read until it retires.
			m.buffers[t.Proc] = append(m.buffers[t.Proc], wbEntry{
				addr: req.Addr, read: true, opIndex: m.threads[t.Proc].OpIndex,
			})
			return nil
		case req.Op == mem.OpRead:
			if v, fwd := m.forwardFrom(t.Proc, req.Addr); fwd {
				m.resolve(t.Proc, req, v, 0)
				return nil
			}
			if m.mode != relaxRMO {
				m.resolve(t.Proc, req, m.memory.get(req.Addr), 0)
				return nil
			}
			i, h := m.ensureHist(req.Addr)
			idx := m.seen[t.Proc].getSlot(i, req.Addr) + int(t.Aux)
			if idx < 0 || idx >= len(h) {
				return fmt.Errorf("rmo: P%d read of x%d with out-of-range version offset %d", t.Proc, req.Addr, t.Aux)
			}
			v := h[idx]
			m.seen[t.Proc].setSlot(i, req.Addr, idx)
			m.pruneHist(i)
			m.resolve(t.Proc, req, v, 0)
			return nil
		default: // synchronization: buffer drained; full fence + atomic access
			if len(m.buffers[t.Proc]) > 0 {
				return fmt.Errorf("%s: sync op with non-empty buffer on P%d", m.name, t.Proc)
			}
			old := m.memory.get(req.Addr)
			var wv mem.Value
			if req.Op.Writes() {
				wv = req.NewValue(old)
				m.commit(t.Proc, req.Addr, wv)
			}
			if m.mode == relaxRMO {
				// The fence half: discard every stale view, so accesses after
				// the sync cannot appear to have executed before it.
				for i := 0; i < m.hist.len(); i++ {
					a, h := m.hist.at(i)
					m.seen[t.Proc].setSlot(i, a, len(h)-1)
					m.pruneHist(i)
				}
			}
			m.resolve(t.Proc, req, old, wv)
			return nil
		}
	default:
		return fmt.Errorf("%s: unexpected transition %s", m.name, t)
	}
}

// Done implements Machine.
func (m *Relaxed) Done() bool {
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

// AppendKey implements Machine. PSO/RMO/network buffers are encoded grouped
// by address (stable, preserving per-address FIFO order): the cross-address
// interleaving of such a buffer is not semantic state — drains, forwarding
// and Done never compare entries across addresses — and keeping it out of the
// key makes independent steps commute at key level, which the partial-order
// reducer relies on. TSO buffers are strictly FIFO, so their full order is
// state and is encoded as-is.
func (m *Relaxed) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	key = append(key, 'M')
	key = appendMem(key, &m.memory)
	key = append(key, 'B')
	for p := range m.buffers {
		b := m.buffers[p]
		if m.mode != relaxTSO && len(b) > 1 {
			// A stable insertion sort of a stack copy: the buffer holds
			// at most bufferDepth writes and, on the network machine, a
			// read queued behind them.
			var sorted [bufferDepth + 1]wbEntry
			b = append(sorted[:0], b...)
			for i := 1; i < len(b); i++ {
				for j := i; j > 0 && b[j].addr < b[j-1].addr; j-- {
					b[j], b[j-1] = b[j-1], b[j]
				}
			}
		}
		key = binary.AppendUvarint(key, uint64(len(b)))
		for _, e := range b {
			a := uint64(e.addr) << 1
			if e.read {
				a |= 1 // a queued read, whose value is not yet known
			}
			key = binary.AppendUvarint(key, a)
			key = binary.AppendVarint(key, int64(e.value))
			key = binary.AppendUvarint(key, uint64(e.opIndex))
		}
	}
	if m.mode == relaxRMO {
		key = append(key, 'H')
		key = binary.AppendUvarint(key, uint64(m.hist.len()))
		for i := 0; i < m.hist.len(); i++ {
			a, h := m.hist.at(i)
			key = binary.AppendUvarint(key, uint64(a))
			key = binary.AppendUvarint(key, uint64(len(h)))
			for _, v := range h {
				key = binary.AppendVarint(key, int64(v))
			}
			for p := range m.seen {
				key = binary.AppendUvarint(key, uint64(m.seen[p].getSlot(i, a)))
			}
		}
	}
	return key
}

// Footprints implements Machine: each processor's static suffix plus the
// writes, and network reads, still sitting in its buffer. Wake footprints
// stay empty — every enabling gate (buffer room, sync drain, delay set, a
// queued read) depends on the processor's own buffer alone.
func (m *Relaxed) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	base := len(buf)
	buf = m.appendThreadFootprints(buf)
	for p, b := range m.buffers {
		fp := &buf[base+p].Future
		for _, e := range b {
			if bit, ok := m.fpAddrBit(e.addr); !ok {
				fp.Wild = true
			} else if e.read {
				fp.Reads |= bit
			} else {
				fp.Writes |= bit
			}
		}
		// On RMO every remaining sync is a full fence (see Transitions).
		if m.mode == relaxRMO && fp.Sync {
			fp.Fence = true
		}
	}
	return buf
}

// Final implements Machine.
func (m *Relaxed) Final() *program.FinalState { return m.finalState(&m.memory) }

// AppendResultKey implements Machine.
func (m *Relaxed) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.memory) }
