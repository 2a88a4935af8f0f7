package model

import (
	"encoding/binary"
	"fmt"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// woMode selects which weak-ordering discipline a WeakOrdered machine
// enforces at synchronization operations.
type woMode uint8

const (
	// modeDef1 is Dubois/Scheurich/Briggs' Definition 1: a processor may not
	// issue a synchronization operation until all its previous accesses are
	// globally performed (and, symmetrically, issues nothing past a sync
	// until the sync is globally performed — automatic here because the
	// sync executes atomically).
	modeDef1 woMode = iota
	// modeDef2 is the paper's Section-5 implementation: a synchronization
	// operation commits without waiting for the issuer's outstanding
	// accesses; instead it *reserves* its location, and a subsequent
	// synchronization on the same location by another processor stalls
	// until the reserver's outstanding accesses are globally performed
	// (conditions 1-5 of Section 5.1).
	modeDef2
	// modeDef2DRF1 refines modeDef2 per Section 6: read-only
	// synchronization operations are not serialized and set no reservation;
	// they still respect existing reservations (an acquire must not see a
	// release whose prior accesses are incomplete).
	modeDef2DRF1
	// modeDef2NoReserve is the ablation: Definition 2's machine with the
	// reserve-bit mechanism disabled. Synchronization still commits without
	// waiting for outstanding accesses, but nothing transfers the stall to
	// the next synchronizer — the machine is NOT weakly ordered w.r.t. DRF0
	// and the contract experiments must catch it.
	modeDef2NoReserve
	// modeNonAtomic is Figure 1's configuration 4: every access issues in
	// program order and hits the issuer's own copy at once, but a write
	// reaches the other copies asynchronously. Synchronization orders
	// nothing: a sync commits to the issuer's copy and propagates like a
	// data write, so the machine implements no weak ordering at all — the
	// deliberately broken hardware the Definition-2 contract checker must
	// catch even on DRF0 programs.
	modeNonAtomic
)

// WeakOrdered is the family of cache-based machines, weakly ordered or not,
// sharing the copies substrate (per-processor copies, asynchronous
// propagation, commit vs globally-performed distinction).
type WeakOrdered struct {
	base
	c    *copies
	mode woMode
	// resv holds, per synchronization location, 1 + the processor holding
	// its reservation, or 0 when none. A reservation is released when the
	// holder's outstanding counter reads zero; release is evaluated lazily.
	resv addrTable[int]
}

// NewWODef1 builds a Definition-1 weakly ordered machine.
func NewWODef1(p *program.Program) *WeakOrdered { return newWO(p, modeDef1, "WO-def1") }

// NewWODef2 builds the paper's Section-5 machine.
func NewWODef2(p *program.Program) *WeakOrdered { return newWO(p, modeDef2, "WO-def2") }

// NewWODef2DRF1 builds the Section-6 refined machine.
func NewWODef2DRF1(p *program.Program) *WeakOrdered {
	return newWO(p, modeDef2DRF1, "WO-def2-drf1")
}

// NewWODef2NoReserve builds the ablated Section-5 machine with reserve bits
// disabled; it exists to demonstrate that the reservation mechanism is what
// makes the implementation weakly ordered w.r.t. DRF0.
func NewWODef2NoReserve(p *program.Program) *WeakOrdered {
	return newWO(p, modeDef2NoReserve, "WO-def2-noreserve")
}

// NewNonAtomic builds Figure 1's cache-based network machine, which ignores
// synchronization.
func NewNonAtomic(p *program.Program) *WeakOrdered {
	return newWO(p, modeNonAtomic, "network+cache-nonatomic")
}

// NewFence builds an RP3-style fence machine (Section 2.1): a processor waits
// for acknowledgements of its outstanding requests only at synchronization
// points. Operationally this coincides with Definition 1's per-processor
// stall, so the machine shares modeDef1 and with it WO-def1's behaviour
// identity; only the name differs, and test E7 verifies the behavioral
// equivalence explicitly.
func NewFence(p *program.Program) *WeakOrdered { return newWO(p, modeDef1, "RP3-fence") }

func newWO(p *program.Program, mode woMode, name string) *WeakOrdered {
	b := newBase(name, p)
	return &WeakOrdered{
		base: b,
		c:    newCopies(p.NumThreads(), b.initialMemory()),
		mode: mode,
		resv: newAddrTable[int](b.univ),
	}
}

// Behavior implements Machine: the mode, so RP3-fence shares WO-def1's.
func (m *WeakOrdered) Behavior() Behavior {
	return Behavior{kind: kindWeakOrdered, mode: uint8(m.mode)}
}

// CloneInto implements Machine.
func (m *WeakOrdered) CloneInto(dst Machine) Machine {
	d, _ := dst.(*WeakOrdered)
	if d == nil {
		d = new(WeakOrdered)
	}
	m.copyBase(&d.base)
	d.c = m.c.copyInto(d.c)
	d.mode = m.mode
	m.resv.copyInto(&d.resv)
	return d
}

// reserver returns the processor effectively holding a reservation on a, or
// -1: a recorded reservation whose holder has drained is already released.
func (m *WeakOrdered) reserver(a mem.Addr) int { return m.holder(m.resv.get(a)) }

// holder decodes a reservation slot: the processor holding it, or -1 when
// the slot is empty or its holder has drained.
func (m *WeakOrdered) holder(slot int) int {
	if slot == 0 || m.c.drained(slot-1) {
		return -1
	}
	return slot - 1
}

// syncEnabled reports whether processor p may commit its pending
// synchronization operation on addr right now.
func (m *WeakOrdered) syncEnabled(p int, req program.Request) bool {
	switch m.mode {
	case modeDef1:
		// Definition 1, condition 2: previous accesses globally performed.
		return m.c.drained(p)
	case modeDef2, modeDef2DRF1:
		r := m.reserver(req.Addr)
		return r < 0 || r == p
	case modeDef2NoReserve, modeNonAtomic:
		return true
	default:
		panic("model: unknown weak-ordering mode")
	}
}

// local reports whether an operation commits to the issuer's copy and
// propagates asynchronously: data operations always, synchronization only
// on the NonAtomic machine.
func (m *WeakOrdered) local(op mem.Op) bool { return !op.IsSync() || m.mode == modeNonAtomic }

// Transitions implements Machine. A delivery acts for the propagation's
// *source* processor: outstanding[src] is what it decrements, and every gate
// that can freeze on undelivered propagations (WODef1's sync stall
// drained(p), WODef2's reservation release drained(holder), per-(dst,addr)
// FIFO order) waits on the source's deliveries, which is what lets the kernel
// treat each processor plus its undelivered propagations as one agent.
func (m *WeakOrdered) Transitions(ts []explore.Step) []explore.Step {
	for i := range m.c.pending {
		if m.c.deliverable(i) {
			pr := &m.c.pending[i]
			ts = append(ts, m.step(TDeliver, pr.dst, pr.seq, pr.src, pr.addr, mem.OpWrite))
		}
	}
	for p := range m.threads {
		req, ok, err := m.pending(p)
		if err != nil || !ok {
			continue
		}
		if req.Op.IsSync() && !m.syncEnabled(p, req) {
			continue
		}
		if req.Op.Writes() && m.local(req.Op) && !m.c.canCommit(p) {
			continue // finite write buffering: stall until a delivery frees room
		}
		ts = append(ts, m.execStep(p, req))
	}
	return ts
}

// Apply implements Machine.
func (m *WeakOrdered) Apply(t explore.Step) error {
	switch t.Kind {
	case TDeliver:
		src, err := m.c.deliver(t.Aux, t.Proc)
		if err != nil {
			return err
		}
		// A reservation is released for good the moment its holder's
		// outstanding counter reads zero. Scrubbing eagerly (rather than
		// filtering lazily in reserver) matters for state deduplication: a
		// lazily released reservation would silently rearm when the holder
		// commits its next write, giving two states with identical canonical
		// keys (the 'V' section encodes effective reservations only)
		// different futures.
		if m.c.drained(src) {
			for i := 0; i < m.resv.len(); i++ {
				if _, h := m.resv.at(i); h == src+1 {
					m.resv.setAt(i, 0)
				}
			}
		}
		return nil
	case TExec:
		req, ok, err := m.pending(t.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: P%d has no pending operation", m.name, t.Proc)
		}
		if m.local(req.Op) {
			// Data accesses are fully relaxed on every machine in the
			// family, and so is every access on NonAtomic: reads hit the
			// local copy; writes commit locally and propagate
			// asynchronously.
			old := m.c.read(t.Proc, req.Addr)
			var wv mem.Value
			if req.Op.Writes() {
				wv = req.NewValue(old)
				m.c.commitWrite(t.Proc, req.Addr, wv)
			}
			m.resolve(t.Proc, req, old, wv)
			return nil
		}
		if !m.syncEnabled(t.Proc, req) {
			return fmt.Errorf("%s: P%d sync on x%d applied while stalled", m.name, t.Proc, req.Addr)
		}
		// The Section-6 refinement lets a read-only synchronization
		// operation proceed without serialization: it reads the local copy
		// (current for sync locations, whose writes are atomic) and leaves
		// no reservation.
		if m.mode == modeDef2DRF1 && req.Op == mem.OpSyncRead {
			old := m.c.read(t.Proc, req.Addr)
			m.resolve(t.Proc, req, old, 0)
			return nil
		}
		// A synchronization operation is performed on an exclusively held
		// line (Section 5.3), so its commit and global performance
		// coincide: the write component applies to every copy atomically.
		// Sync operations on the same location are thereby totally ordered
		// by commit time and globally performed in that order (condition 3).
		old := m.c.read(t.Proc, req.Addr)
		var wv mem.Value
		if req.Op.Writes() {
			wv = req.NewValue(old)
			m.c.atomicWrite(t.Proc, req.Addr, wv)
		}
		if m.mode == modeDef2 || m.mode == modeDef2DRF1 {
			// Condition 5: if the issuer has outstanding accesses, reserve
			// the line so later synchronizers stall until it drains.
			if !m.c.drained(t.Proc) {
				m.resv.set(req.Addr, t.Proc+1)
			} else {
				m.resv.set(req.Addr, 0)
			}
		}
		// modeDef2NoReserve deliberately records nothing: the ablation.
		m.resolve(t.Proc, req, old, wv)
		return nil
	default:
		return fmt.Errorf("%s: unexpected transition %s", m.name, t)
	}
}

// Done implements Machine.
func (m *WeakOrdered) Done() bool { return m.c.allDrained() && m.threadsDone() }

// AppendKey implements Machine.
func (m *WeakOrdered) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	key = m.c.appendKey(key)
	key = append(key, 'V')
	// Encode effective reservations, count-prefixed, in the table's
	// canonical slot order.
	n := 0
	for i := 0; i < m.resv.len(); i++ {
		if _, slot := m.resv.at(i); m.holder(slot) >= 0 {
			n++
		}
	}
	key = binary.AppendUvarint(key, uint64(n))
	for i := 0; i < m.resv.len(); i++ {
		if a, slot := m.resv.at(i); m.holder(slot) >= 0 {
			key = binary.AppendUvarint(key, uint64(a))
			key = binary.AppendUvarint(key, uint64(m.holder(slot)))
		}
	}
	return key
}

// Footprints implements Machine: each processor's static suffix plus the
// writes it has committed but not yet globally performed. Two gates can be
// unfrozen by other agents and are declared as wake footprints: a delivery
// blocked behind another source's older same-(dst,addr) propagation (woken
// by that source delivering — a write to the same address, so the agent's
// own propagation addresses as reads), and a synchronization stalled on a
// reservation (woken by the holder finishing its deliveries — writes to the
// holder's propagation addresses). Everything else (canCommit, Definition
// 1's drain stall) waits on the agent's own deliveries.
func (m *WeakOrdered) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	base := len(buf)
	buf = m.appendThreadFootprints(buf)
	masks := m.c.propMasks(m.fpAddrBit)
	for p, pm := range masks {
		af := &buf[base+p]
		af.Future.Writes |= pm.bits
		af.Future.Wild = af.Future.Wild || pm.wild
		af.Wake.Reads |= pm.bits
		af.Wake.Wild = af.Wake.Wild || pm.wild
	}
	if m.mode == modeDef2 || m.mode == modeDef2DRF1 {
		for p := range m.threads {
			req, ok, err := m.pending(p)
			if err != nil || !ok || !req.Op.IsSync() {
				continue
			}
			if r := m.reserver(req.Addr); r >= 0 && r != p {
				af := &buf[base+p]
				af.Wake.Reads |= masks[r].bits
				af.Wake.Wild = af.Wake.Wild || masks[r].wild
			}
		}
	}
	return buf
}

// Final implements Machine.
func (m *WeakOrdered) Final() *program.FinalState { return m.finalState(&m.c.data[0]) }

// AppendResultKey implements Machine.
func (m *WeakOrdered) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.c.data[0]) }
