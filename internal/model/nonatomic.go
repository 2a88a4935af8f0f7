package model

import (
	"fmt"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// NonAtomic models Figure 1's configuration 4: a cache-based system with a
// general interconnection network in which every processor issues accesses in
// program order and hits its own cache immediately, but a write reaches other
// processors' caches asynchronously — accesses do not *complete* in program
// order. Crucially, this machine applies the same relaxation to
// synchronization operations, so it implements no weak ordering at all: it is
// the deliberately broken hardware against which the Definition-2 contract
// checker must report violations even for DRF0 programs.
type NonAtomic struct {
	base
	c *copies
}

// NewNonAtomic builds the machine.
func NewNonAtomic(p *program.Program) *NonAtomic {
	b := newBase("network+cache-nonatomic", p)
	return &NonAtomic{base: b, c: newCopies(p.NumThreads(), b.initialMemory())}
}

// Clone implements Machine.
func (m *NonAtomic) Clone() Machine { return m.CloneInto(nil) }

// Behavior implements Machine.
func (m *NonAtomic) Behavior() Behavior { return Behavior{kind: kindNonAtomic} }

// CloneInto implements Machine.
func (m *NonAtomic) CloneInto(dst Machine) Machine {
	d, _ := dst.(*NonAtomic)
	if d == nil {
		d = new(NonAtomic)
	}
	m.copyBase(&d.base)
	d.c = m.c.copyInto(d.c)
	return d
}

// Transitions implements Machine.
func (m *NonAtomic) Transitions(ts []Transition) []Transition {
	for i := range m.c.pending {
		if m.c.deliverable(i) {
			ts = append(ts, Transition{Kind: TDeliver, Proc: m.c.pending[i].dst, Aux: int(m.c.pending[i].seq)})
		}
	}
	for p := range m.threads {
		req, ok, err := m.pending(p)
		if err != nil || !ok {
			continue
		}
		if req.Op.Writes() && !m.c.canCommit(p) {
			continue // finite write buffering: stall until a delivery frees room
		}
		ts = append(ts, Transition{Kind: TExec, Proc: p})
	}
	return ts
}

// Apply implements Machine.
func (m *NonAtomic) Apply(t Transition) error {
	switch t.Kind {
	case TDeliver:
		return m.c.deliver(int64(t.Aux), t.Proc)
	case TExec:
		req, ok, err := m.pending(t.Proc)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("nonatomic: P%d has no pending operation", t.Proc)
		}
		old := m.c.read(t.Proc, req.Addr)
		var wv mem.Value
		if req.Op.Writes() {
			wv = req.NewValue(old)
			m.c.commitWrite(t.Proc, req.Addr, wv)
		}
		m.resolve(t.Proc, req, old, wv)
		return nil
	default:
		return fmt.Errorf("nonatomic: unexpected transition %s", t)
	}
}

// Done implements Machine.
func (m *NonAtomic) Done() bool { return m.c.allDrained() && m.threadsDone() }

// AppendKey implements Machine.
func (m *NonAtomic) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	return m.c.appendKey(key)
}

// StepInfo implements Machine: deliveries act for the source processor (see
// copies.propInfo), executions for the issuing thread.
func (m *NonAtomic) StepInfo(t Transition) explore.Info {
	if t.Kind == TDeliver {
		return m.c.propInfo(int64(t.Aux), t.Proc, m.fpAddrBit)
	}
	return m.execInfo(t.Proc)
}

// Footprints implements Machine: each processor's static suffix plus its
// undelivered write propagations. The only cross-agent enabling gate is a
// delivery blocked behind another source's older same-(dst,addr)
// propagation, declared as a wake footprint on the agent's own propagation
// addresses.
func (m *NonAtomic) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	base := len(buf)
	buf = m.appendThreadFootprints(buf)
	for p, pm := range m.c.propMasks(m.fpAddrBit) {
		af := &buf[base+p]
		af.Future.Writes |= pm.bits
		af.Future.Wild = af.Future.Wild || pm.wild
		af.Wake.Reads |= pm.bits
		af.Wake.Wild = af.Wake.Wild || pm.wild
	}
	return buf
}

// Final implements Machine: once drained all copies agree; processor 0's copy
// is the canonical final memory.
func (m *NonAtomic) Final() *program.FinalState { return m.finalState(&m.c.data[0]) }

// Result implements Machine.
func (m *NonAtomic) Result() mem.Result { return m.result(&m.c.data[0]) }

// AppendResultKey implements Machine.
func (m *NonAtomic) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.c.data[0]) }
