package fuzz

import (
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// Minimize delta-debugs a program that violates the Definition-2 contract on
// machine f: it greedily applies reductions — drop a whole thread, drop a
// single instruction (fixing up branch targets), merge two addresses — and
// keeps a reduction only if the reduced program still obeys DRF0 AND still
// produces an outcome outside the SC set on f. The machine exploration of
// that check stops at its first non-SC outcome, and such a witness keeps the
// reduction even if the stopped run reports an error (a state budget, say);
// an error before any witness rejects it. The check explores serially
// whatever x.Workers says, so the result is the same on every run. The loop runs to a fixpoint, so
// the result is 1-minimal with respect to the reduction set: removing any
// single remaining thread or instruction, or merging any remaining address
// pair, loses the violation.
//
// Minimize never fails: if no reduction applies it returns (a copy of) the
// input. The caller is expected to have established the violation first
// (Checker.Check / violates); passing a non-violating program returns it
// unchanged.
func Minimize(p *program.Program, f litmus.Factory, x *model.Explorer) *program.Program {
	if x == nil {
		x = DefaultExplorer()
	}
	cur := cloneProgram(p)
	cur.Name = p.Name + "-min"
	if !violates(cur, f, x) {
		return cur
	}
	for changed := true; changed; {
		changed = false
		// Whole threads first: the biggest cuts.
		for i := len(cur.Threads) - 1; i >= 0; i-- {
			if len(cur.Threads) == 1 {
				break
			}
			if cand := dropThread(cur, i); violates(cand, f, x) {
				cur = cand
				changed = true
			}
		}
		// Single instructions, scanned back to front so surviving indices
		// stay valid as instructions disappear.
		for t := range cur.Threads {
			for i := len(cur.Threads[t]) - 1; i >= 0; i-- {
				if cand := dropOp(cur, t, i); violates(cand, f, x) {
					cur = cand
					changed = true
				}
			}
		}
		// Address merges: rewrite the higher address onto the lower one.
		addrs := cur.Addrs()
		for ai := len(addrs) - 1; ai >= 1; ai-- {
			for bi := 0; bi < ai; bi++ {
				if cand := mergeAddr(cur, addrs[ai], addrs[bi]); violates(cand, f, x) {
					cur = cand
					changed = true
					break
				}
			}
		}
	}
	return cur
}

// cloneProgram deep-copies a program so reductions never alias the input.
func cloneProgram(p *program.Program) *program.Program {
	q := &program.Program{Name: p.Name, Init: make(map[mem.Addr]mem.Value, len(p.Init))}
	for a, v := range p.Init {
		q.Init[a] = v
	}
	q.Threads = make([]program.Code, len(p.Threads))
	for t, code := range p.Threads {
		q.Threads[t] = append(program.Code(nil), code...)
	}
	return q
}

// dropThread returns a copy of p without thread t.
func dropThread(p *program.Program, t int) *program.Program {
	q := cloneProgram(p)
	q.Threads = append(q.Threads[:t], q.Threads[t+1:]...)
	return q
}

// dropOp returns a copy of p with instruction i of thread t removed, shifting
// the branch targets of the surviving instructions: targets past the removed
// instruction move up by one; a branch *to* the removed instruction now
// targets whatever followed it. A branch left pointing past the end of the
// shortened thread makes the candidate invalid, and the caller's Validate
// check rejects it.
func dropOp(p *program.Program, t, i int) *program.Program {
	q := cloneProgram(p)
	code := q.Threads[t]
	code = append(code[:i], code[i+1:]...)
	for j := range code {
		switch code[j].Op {
		case program.IBeq, program.IBne, program.IBlt, program.IJmp:
			if code[j].Target > i {
				code[j].Target--
			}
		}
	}
	q.Threads[t] = code
	return q
}

// mergeAddr returns a copy of p with every reference to address from
// rewritten to address to. Initial values: to's wins when both exist;
// otherwise from's moves over.
func mergeAddr(p *program.Program, from, to mem.Addr) *program.Program {
	q := cloneProgram(p)
	for t := range q.Threads {
		for j := range q.Threads[t] {
			if q.Threads[t][j].Addr == from {
				if _, isMem := q.Threads[t][j].MemOp(); isMem {
					q.Threads[t][j].Addr = to
				}
			}
		}
	}
	if v, ok := q.Init[from]; ok {
		if _, exists := q.Init[to]; !exists {
			q.Init[to] = v
		}
		delete(q.Init, from)
	}
	return q
}

// Size summarizes a program's footprint for minimization reporting.
type Size struct {
	Threads int
	// MaxOps is the instruction count of the longest thread (Halt included).
	MaxOps int
	Addrs  int
}

// SizeOf measures p.
func SizeOf(p *program.Program) Size {
	s := Size{Threads: len(p.Threads), Addrs: len(p.Addrs())}
	for _, code := range p.Threads {
		if len(code) > s.MaxOps {
			s.MaxOps = len(code)
		}
	}
	return s
}
