// Package program defines the register-machine programs executed by every
// simulated memory system in this repository. A program is a set of threads,
// each a sequence of instructions over 16 registers; memory is accessed with
// data loads/stores and the three synchronization operations of the paper's
// DRF0 model (sync read, sync write, and atomic read-modify-write, i.e.
// Test / Unset / TestAndSet).
//
// The interpreter (Thread) is deliberately decoupled from any memory system:
// it runs local instructions itself and *publishes* memory requests, which
// the surrounding machine (operational model or timed simulator) resolves at
// whatever moment its memory model dictates. This lets one program run
// unchanged on sequentially consistent hardware, on the relaxed machines of
// Figure 1, and on the weakly ordered implementations of Section 5.
package program

import (
	"fmt"

	"weakorder/internal/mem"
)

// Reg names one of the 16 general-purpose registers of a thread.
type Reg int

// NumRegs is the register-file size of each thread.
const NumRegs = 16

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	// INop does nothing for Delay cycles of local work (at least one).
	INop Opcode = iota
	// IMov sets Rd := Src.
	IMov
	// IAdd sets Rd := Ra + Src.
	IAdd
	// ISub sets Rd := Ra - Src.
	ISub
	// IMul sets Rd := Ra * Src.
	IMul
	// ILoad performs a data read: Rd := mem[EA].
	ILoad
	// IStore performs a data write: mem[EA] := Src.
	IStore
	// ISyncLoad performs a read-only synchronization operation (Test):
	// Rd := mem[EA], recognized by hardware as synchronization.
	ISyncLoad
	// ISyncStore performs a write-only synchronization operation (Unset):
	// mem[EA] := Src, recognized by hardware as synchronization.
	ISyncStore
	// ISyncRMW performs an atomic read-modify-write synchronization
	// operation on EA: Rd := old value; the new value is determined by the
	// RMW kind and Src (TestAndSet writes Src; FetchAdd writes old+Src).
	ISyncRMW
	// IBeq branches to Target if Ra == Src.
	IBeq
	// IBne branches to Target if Ra != Src.
	IBne
	// IBlt branches to Target if Ra < Src.
	IBlt
	// IJmp branches unconditionally to Target.
	IJmp
	// IHalt terminates the thread.
	IHalt
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	names := [...]string{"nop", "mov", "add", "sub", "mul", "ld", "st",
		"sync.ld", "sync.st", "sync.rmw", "beq", "bne", "blt", "jmp", "halt"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// RMWKind selects the write function of an ISyncRMW instruction.
type RMWKind uint8

const (
	// RMWSet writes the Src operand, returning the old value (TestAndSet
	// when Src is 1, Swap in general).
	RMWSet RMWKind = iota
	// RMWAdd writes old+Src, returning the old value (FetchAndAdd).
	RMWAdd
)

// String implements fmt.Stringer.
func (k RMWKind) String() string {
	switch k {
	case RMWSet:
		return "set"
	case RMWAdd:
		return "add"
	default:
		return fmt.Sprintf("rmw(%d)", uint8(k))
	}
}

// Operand is either a register or an immediate value.
type Operand struct {
	IsReg bool
	Reg   Reg
	Imm   mem.Value
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{IsReg: true, Reg: r} }

// Imm returns an immediate operand.
func Imm(v mem.Value) Operand { return Operand{Imm: v} }

// String implements fmt.Stringer.
func (o Operand) String() string {
	if o.IsReg {
		return fmt.Sprintf("r%d", o.Reg)
	}
	return fmt.Sprintf("%d", o.Imm)
}

// Instr is one instruction. Which fields are meaningful depends on Op; the
// zero value of unused fields is ignored.
type Instr struct {
	Op   Opcode
	Rd   Reg     // destination register (mov/add/sub/mul/ld/sync.ld/sync.rmw)
	Ra   Reg     // left source register (add/sub/mul/beq/bne/blt)
	Src  Operand // right source operand (alu/store data/branch comparand/rmw operand)
	Addr mem.Addr
	// AddrReg, when UseAddrReg is set, contributes regs[AddrReg] to the
	// effective address (EA = Addr + regs[AddrReg]). Used by array
	// workloads; litmus tests use absolute addresses.
	AddrReg    Reg
	UseAddrReg bool
	RMW        RMWKind
	Target     int // branch target, instruction index within the thread
	Delay      int // INop local-work cycles (>=1 in the timed simulator)
}

// MemOp returns the mem.Op performed by a memory instruction, and ok=false
// for non-memory instructions.
func (in Instr) MemOp() (mem.Op, bool) { return in.Op.memOp() }

// memOp is MemOp by opcode alone: the thread interpreter calls it on the
// instruction in place, where calling the value method would copy the Instr.
func (o Opcode) memOp() (mem.Op, bool) {
	switch o {
	case ILoad:
		return mem.OpRead, true
	case IStore:
		return mem.OpWrite, true
	case ISyncLoad:
		return mem.OpSyncRead, true
	case ISyncStore:
		return mem.OpSyncWrite, true
	case ISyncRMW:
		return mem.OpSyncRMW, true
	}
	return 0, false
}

// String implements fmt.Stringer.
func (in Instr) String() string {
	ea := fmt.Sprintf("x%d", in.Addr)
	if in.UseAddrReg {
		ea = fmt.Sprintf("x%d+r%d", in.Addr, in.AddrReg)
	}
	switch in.Op {
	case INop:
		return fmt.Sprintf("nop %d", in.Delay)
	case IMov:
		return fmt.Sprintf("mov r%d, %s", in.Rd, in.Src)
	case IAdd, ISub, IMul:
		return fmt.Sprintf("%s r%d, r%d, %s", in.Op, in.Rd, in.Ra, in.Src)
	case ILoad, ISyncLoad:
		return fmt.Sprintf("%s r%d, %s", in.Op, in.Rd, ea)
	case IStore, ISyncStore:
		return fmt.Sprintf("%s %s, %s", in.Op, ea, in.Src)
	case ISyncRMW:
		return fmt.Sprintf("sync.rmw.%s r%d, %s, %s", in.RMW, in.Rd, ea, in.Src)
	case IBeq, IBne, IBlt:
		return fmt.Sprintf("%s r%d, %s, @%d", in.Op, in.Ra, in.Src, in.Target)
	case IJmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case IHalt:
		return "halt"
	default:
		return fmt.Sprintf("?%d", in.Op)
	}
}

// Code is one thread's instruction sequence.
type Code []Instr

// LiveRegs returns 1 + the highest register an instruction of c writes
// (mov, add, sub, mul, ld, sync.ld, sync.rmw), or 0 when none writes one.
// Every register from LiveRegs on holds zero for the whole run, so a state
// key need render only the registers below it (Thread.AppendSnapshot).
func (c Code) LiveRegs() int {
	n := 0
	for _, in := range c {
		switch in.Op {
		case IMov, IAdd, ISub, IMul, ILoad, ISyncLoad, ISyncRMW:
			n = max(n, int(in.Rd)+1)
		}
	}
	return n
}

// Program is a complete multithreaded program plus initial memory state.
type Program struct {
	Name    string
	Threads []Code
	// Init gives the initial value of every location the program may touch;
	// locations absent from Init start at zero.
	Init map[mem.Addr]mem.Value
}

// NumThreads returns the number of threads.
func (p *Program) NumThreads() int { return len(p.Threads) }

// Addrs returns every address statically referenced by the program (base
// addresses only for register-indexed accesses) plus all Init keys, sorted.
func (p *Program) Addrs() []mem.Addr {
	set := make(map[mem.Addr]bool)
	for _, c := range p.Threads {
		for _, in := range c {
			if _, ok := in.MemOp(); ok {
				set[in.Addr] = true
			}
		}
	}
	for a := range p.Init {
		set[a] = true
	}
	out := make([]mem.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Validate checks that branch targets are in range, register numbers are
// valid, and INop delays are positive.
func (p *Program) Validate() error {
	for t, code := range p.Threads {
		for i, in := range code {
			bad := func(msg string, args ...any) error {
				return fmt.Errorf("T%d@%d (%s): %s", t, i, in, fmt.Sprintf(msg, args...))
			}
			if in.Rd < 0 || in.Rd >= NumRegs || in.Ra < 0 || in.Ra >= NumRegs {
				return bad("register out of range")
			}
			if in.Src.IsReg && (in.Src.Reg < 0 || in.Src.Reg >= NumRegs) {
				return bad("source register out of range")
			}
			switch in.Op {
			case IBeq, IBne, IBlt, IJmp:
				if in.Target < 0 || in.Target >= len(code) {
					return bad("branch target %d out of range [0,%d)", in.Target, len(code))
				}
			case INop:
				if in.Delay < 1 {
					return bad("nop delay must be >= 1")
				}
			case ISyncRMW:
				if in.RMW != RMWSet && in.RMW != RMWAdd {
					return bad("unknown rmw kind %d", in.RMW)
				}
			}
		}
	}
	return nil
}

// Request is a memory request published by a thread: the memory system is
// expected to perform Op at Addr and (for reads) eventually deliver a value
// back via Thread.Resolve.
type Request struct {
	Op   mem.Op
	Addr mem.Addr
	// Data is the value to write for write operations; for OpSyncRMW it is
	// the operand of the RMW function.
	Data mem.Value
	RMW  RMWKind
}

// NewValue computes the value an OpSyncRMW writes given the old value of the
// location. For plain writes it returns Data.
func (r Request) NewValue(old mem.Value) mem.Value {
	if r.Op == mem.OpSyncRMW && r.RMW == RMWAdd {
		return old + r.Data
	}
	return r.Data
}
