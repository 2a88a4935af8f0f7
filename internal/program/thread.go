package program

import (
	"fmt"

	"weakorder/internal/mem"
)

// maxLocalSteps bounds the number of consecutive non-memory instructions a
// thread may execute between memory operations, so that a buggy local loop
// surfaces as an error instead of hanging a simulation.
const maxLocalSteps = 1 << 20

// Thread interprets one thread of a Program. The interpreter runs local
// instructions eagerly; at a memory instruction it stops and exposes the
// Request, which the surrounding machine resolves (immediately for an
// idealized machine, after arbitrary delay and reordering for relaxed ones).
//
// The struct is a value type on purpose: operational model exploration copies
// whole machine states, and copying a Thread must be a plain struct copy.
// (Code is shared and never mutated.)
type Thread struct {
	Code Code
	PC   int
	Regs [NumRegs]mem.Value
	// Halted is set once the thread has executed IHalt or run past the end
	// of its code.
	Halted bool
	// OpIndex counts completed memory operations: it is the program-order
	// index the *next* memory operation will carry.
	OpIndex int

	// pendingValid marks Code[PC] as the exposed memory instruction: PC
	// advances past a memory instruction only in Resolve, so the pending
	// instruction is read in place rather than copied into the thread.
	pendingValid bool
	localWork    int // remaining INop delay cycles at the current PC
}

// NewThread returns a thread at the start of code.
func NewThread(code Code) Thread { return Thread{Code: code} }

// Pending reports the memory request the thread is blocked on, running local
// instructions as needed to reach it. ok is false when the thread has halted.
// Pending is idempotent: it may be called repeatedly without side effects
// once a request is exposed.
func (t *Thread) Pending() (Request, bool, error) {
	if t.pendingValid {
		return t.request(), true, nil
	}
	if t.Halted {
		return Request{}, false, nil
	}
	for steps := 0; ; steps++ {
		if steps > maxLocalSteps {
			return Request{}, false, fmt.Errorf("program: thread exceeded %d local steps at pc %d (runaway local loop?)", maxLocalSteps, t.PC)
		}
		if t.PC < 0 || t.PC >= len(t.Code) {
			t.Halted = true
			return Request{}, false, nil
		}
		in := &t.Code[t.PC]
		if _, isMem := in.Op.memOp(); isMem {
			t.pendingValid = true
			return t.request(), true, nil
		}
		switch in.Op {
		case INop:
			// Accumulate local work; a timed simulator drains it with
			// TakeLocalWork before issuing the next memory operation, while
			// untimed machines simply ignore it.
			t.localWork += in.Delay
			t.PC++
		case IMov:
			t.Regs[in.Rd] = t.operand(in.Src)
			t.PC++
		case IAdd:
			t.Regs[in.Rd] = t.Regs[in.Ra] + t.operand(in.Src)
			t.PC++
		case ISub:
			t.Regs[in.Rd] = t.Regs[in.Ra] - t.operand(in.Src)
			t.PC++
		case IMul:
			t.Regs[in.Rd] = t.Regs[in.Ra] * t.operand(in.Src)
			t.PC++
		case IBeq:
			if t.Regs[in.Ra] == t.operand(in.Src) {
				t.PC = in.Target
			} else {
				t.PC++
			}
		case IBne:
			if t.Regs[in.Ra] != t.operand(in.Src) {
				t.PC = in.Target
			} else {
				t.PC++
			}
		case IBlt:
			if t.Regs[in.Ra] < t.operand(in.Src) {
				t.PC = in.Target
			} else {
				t.PC++
			}
		case IJmp:
			t.PC = in.Target
		case IHalt:
			t.Halted = true
			return Request{}, false, nil
		default:
			return Request{}, false, fmt.Errorf("program: unknown opcode %d at pc %d", in.Op, t.PC)
		}
	}
}

// TakeLocalWork returns and clears the INop cycles accumulated since the last
// call. Timed simulators call it after Pending and charge the cycles before
// issuing the pending memory operation (or before halting); untimed machines
// never call it.
func (t *Thread) TakeLocalWork() int {
	d := t.localWork
	t.localWork = 0
	return d
}

// request builds the Request for the pending memory instruction.
func (t *Thread) request() Request {
	in := &t.Code[t.PC]
	op, _ := in.Op.memOp()
	r := Request{Op: op, Addr: t.effAddr(in), RMW: in.RMW}
	if op.Writes() {
		r.Data = t.operand(in.Src)
	}
	return r
}

// effAddr computes the effective address of a memory instruction.
func (t *Thread) effAddr(in *Instr) mem.Addr {
	a := in.Addr
	if in.UseAddrReg {
		a += mem.Addr(t.Regs[in.AddrReg])
	}
	return a
}

// Resolve completes the pending memory operation. For operations with a read
// component, value is the value returned by memory; for pure writes it is
// ignored. Resolve advances the PC and the program-order operation index.
// It panics if no request is pending — that is always a machine bug.
func (t *Thread) Resolve(value mem.Value) {
	if !t.pendingValid {
		panic("program: Resolve with no pending memory request")
	}
	in := &t.Code[t.PC]
	op, _ := in.Op.memOp()
	if op.Reads() {
		t.Regs[in.Rd] = value
	}
	t.pendingValid = false
	t.PC++
	t.OpIndex++
}

// Blocked reports whether the thread currently has an unresolved memory
// request exposed.
func (t *Thread) Blocked() bool { return t.pendingValid }

// Done reports whether the thread has halted with no pending request.
func (t *Thread) Done() bool { return t.Halted && !t.pendingValid }

// operand evaluates an operand against the register file.
func (t *Thread) operand(o Operand) mem.Value {
	if o.IsReg {
		return t.Regs[o.Reg]
	}
	return o.Imm
}

// Snapshot returns a compact, canonical encoding of the thread state,
// suitable for hashing machine states during exhaustive exploration. It
// renders every register: AppendSnapshot(nil, NumRegs).
//
// OpIndex is deliberately excluded: it is a history counter, not
// future-relevant state, and including it would make every iteration of a
// spin loop a distinct state, turning bounded spin-loop state spaces into
// unbounded ones. Explorations that must distinguish histories key on the
// machine's read/sync logs instead (model.KeyResult / model.KeyExecution).
func (t *Thread) Snapshot() string {
	return string(t.AppendSnapshot(make([]byte, 0, 8+NumRegs*4), NumRegs))
}

// AppendSnapshot appends the thread's PC, its halted and pending flags and
// registers 0 to regs-1 to b and returns the extended slice, so state-key
// construction can reuse one buffer across an entire exploration instead of
// allocating a string per state. A state key passes its code's LiveRegs,
// since the registers above it stay zero, or NumRegs for every register.
// The encoding is a self-delimiting varint sequence, prefix-free for a fixed
// regs, so concatenating snapshots of successive threads, each rendered at
// its own fixed regs, remains unambiguous.
func (t *Thread) AppendSnapshot(b []byte, regs int) []byte {
	b = appendInt(b, int64(t.PC))
	if t.Halted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if t.pendingValid {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, r := range t.Regs[:regs] {
		b = appendInt(b, int64(r))
	}
	return b
}

// appendInt appends a varint-ish encoding of v.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v<<1) ^ uint64(v>>63) // zigzag
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}
