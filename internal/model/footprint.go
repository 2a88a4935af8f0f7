package model

import (
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// progFootprints is the static half of the partial-order reducer's per-agent
// future footprints: for every (thread, pc), an over-approximation of every
// memory access the thread can still perform from that pc. Computed once per
// machine construction and shared, immutably, by all clones. Machines combine
// it with their dynamic half (buffered writes, queued reads, pending
// propagations) in Footprints.
type progFootprints struct {
	// univ is the program's static universe: an address's dense bit index is
	// its slot. Nil when the universe exceeds 64 locations, in which case
	// every footprint degrades to Wild (sound: merely unreduced).
	univ *universe
	// byPC[t][pc] is thread t's future footprint when its PC is pc.
	byPC [][]explore.Footprint
}

func computeFootprints(p *program.Program, u *universe) *progFootprints {
	f := &progFootprints{byPC: make([][]explore.Footprint, len(p.Threads))}
	if len(u.addrs) <= 64 {
		f.univ = u
	}
	for i, code := range p.Threads {
		f.byPC[i] = fpByPC(code, f.univ)
	}
	return f
}

// orFP unions src into dst.
func orFP(dst *explore.Footprint, src explore.Footprint) {
	dst.Reads |= src.Reads
	dst.Writes |= src.Writes
	dst.Wild = dst.Wild || src.Wild
	dst.Sync = dst.Sync || src.Sync
	dst.Opaque = dst.Opaque || src.Opaque
}

// fpByPC computes, per pc, the union of the access footprints of every
// instruction reachable from pc, by backward fixpoint over the thread's
// control-flow graph (branches make it cyclic, so a single pass does not
// suffice). Register-indexed addresses cannot be resolved statically and
// degrade the footprint to Wild.
func fpByPC(code program.Code, u *universe) []explore.Footprint {
	fps := make([]explore.Footprint, len(code))
	for i, in := range code {
		op, ok := in.MemOp()
		if !ok {
			continue
		}
		fp := &fps[i]
		if in.UseAddrReg || u == nil {
			fp.Wild = true
		} else {
			slot, _ := u.slot(in.Addr)
			bit := uint64(1) << slot
			if op.Reads() {
				fp.Reads |= bit
			}
			if op.Writes() {
				fp.Writes |= bit
			}
		}
		if op.IsSync() {
			fp.Sync = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(code) - 1; i >= 0; i-- {
			fp := fps[i]
			switch code[i].Op {
			case program.IHalt:
				// No successors.
			case program.IJmp:
				orFP(&fp, fps[code[i].Target])
			case program.IBeq, program.IBne, program.IBlt:
				orFP(&fp, fps[code[i].Target])
				if i+1 < len(code) {
					orFP(&fp, fps[i+1])
				}
			default:
				if i+1 < len(code) {
					orFP(&fp, fps[i+1])
				}
			}
			if fp != fps[i] {
				fps[i] = fp
				changed = true
			}
		}
	}
	return fps
}

// threadFootprint is thread p's static future footprint at its current PC. A
// halted thread (or one run past its code) has nothing left.
func (b *base) threadFootprint(p int) explore.Footprint {
	t := &b.threads[p]
	byPC := b.fp.byPC[p]
	if t.Halted || t.PC < 0 || t.PC >= len(byPC) {
		return explore.Footprint{}
	}
	// When the thread is blocked on a published request, PC still points at
	// the memory instruction (Resolve advances it), so the pending operation
	// is covered by byPC[PC].
	return byPC[t.PC]
}

// appendThreadFootprints appends one AgentFootprints per processor, with the
// static thread suffix as the future footprint and an empty wake footprint.
// Machines OR their dynamic state (buffers, propagations, reservation stalls)
// on top before returning from Footprints.
func (b *base) appendThreadFootprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	for p := range b.threads {
		buf = append(buf, explore.AgentFootprints{Future: b.threadFootprint(p)})
	}
	return buf
}

// fpAddrBit returns the dense footprint bit of an address; ok is false when
// the address universe overflowed 64 locations or the address is outside the
// static universe, in which case the caller must degrade to Wild.
func (b *base) fpAddrBit(a mem.Addr) (uint64, bool) {
	if b.fp.univ == nil {
		return 0, false
	}
	i, ok := b.fp.univ.slot(a)
	if !ok {
		return 0, false
	}
	return uint64(1) << i, true
}

// step returns the step (kind, proc, aux) that performs one access, op on a,
// for agent.
func (b *base) step(kind uint8, proc int, aux int64, agent int, a mem.Addr, op mem.Op) explore.Step {
	s := explore.Step{Kind: kind, Proc: proc, Aux: aux, Info: explore.Info{Agent: agent, Addr: a, Op: op}}
	s.AddrBit, _ = b.fpAddrBit(a)
	return s
}

// execStep is the TExec step of thread p, whose pending request is req: one
// access by agent p.
func (b *base) execStep(p int, req program.Request) explore.Step {
	return b.step(TExec, p, 0, p, req.Addr, req.Op)
}
