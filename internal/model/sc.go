package model

import (
	"fmt"

	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// SC is the idealized architecture: all memory accesses execute atomically
// and in program order. Its traces are idealized executions in the paper's
// sense, so SC doubles as the ExecutionEnumerator behind Definition 3 and as
// the reference outcome set behind Definition 2.
type SC struct {
	base
	memory addrTable[mem.Value]
}

// NewSC builds an SC machine for the program.
func NewSC(p *program.Program) *SC {
	m := &SC{base: newBase("SC", p)}
	m.memory = m.initialMemory()
	return m
}

// Behavior implements Machine.
func (m *SC) Behavior() Behavior { return Behavior{kind: kindSC} }

// CloneInto implements Machine.
func (m *SC) CloneInto(dst Machine) Machine {
	d, _ := dst.(*SC)
	if d == nil {
		d = new(SC)
	}
	m.copyBase(&d.base)
	m.memory.copyInto(&d.memory)
	return d
}

// Transitions implements Machine: any thread with a pending memory operation
// may execute it atomically, one access by the acting thread.
func (m *SC) Transitions(ts []explore.Step) []explore.Step {
	for p := range m.threads {
		if req, ok, err := m.pending(p); err == nil && ok {
			ts = append(ts, m.execStep(p, req))
		}
	}
	return ts
}

// Apply implements Machine.
func (m *SC) Apply(t explore.Step) error {
	if t.Kind != TExec {
		return fmt.Errorf("SC: unexpected transition %s", t)
	}
	req, ok, err := m.pending(t.Proc)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("SC: P%d has no pending operation", t.Proc)
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

// Done implements Machine.
func (m *SC) Done() bool { return m.threadsDone() }

// AppendKey implements Machine.
func (m *SC) AppendKey(mode KeyMode, key []byte) []byte {
	key = m.appendKeyBase(mode, key)
	key = append(key, 'M')
	return appendMem(key, &m.memory)
}

// Footprints implements Machine: with no buffers or messages, an agent's
// future accesses are exactly its static program suffix, every step is
// always enabled, and the wake footprints stay empty.
func (m *SC) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	return m.appendThreadFootprints(buf)
}

// Final implements Machine.
func (m *SC) Final() *program.FinalState { return m.finalState(&m.memory) }

// AppendResultKey implements Machine.
func (m *SC) AppendResultKey(b []byte) []byte { return m.appendResultKey(b, &m.memory) }
