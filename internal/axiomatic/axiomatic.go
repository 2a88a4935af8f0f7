// Package axiomatic decides memory-model consistency declaratively, as a
// counterpart to the operational machines in internal/model. A candidate
// execution is a tuple of relations — one local trace per thread (fixing
// every read's value), a reads-from map, a per-location coherence order and,
// for Definition-2 weak ordering, a per-location synchronization order — and
// a model is a set of strict timing constraints over the candidate's abstract
// time points. The candidate is consistent iff the constraints admit a
// realization in dense time, i.e. iff the constraint digraph is acyclic.
//
// Admitted enumerates every candidate of a program exhaustively (within hard
// budgets — the checker refuses with ErrTooLarge rather than subsample) and
// returns the set of admitted outcomes, keyed exactly like the operational
// explorer's mem.Result keys. That makes the two formulations differentially
// testable: for each machine/axiom pair the outcome sets must be equal, in
// both directions.
package axiomatic

import (
	"errors"
	"fmt"
	"sort"

	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// System names an axiomatically specified memory model.
type System int

const (
	// SysSC is sequential consistency: po ∪ co ∪ rf ∪ fr acyclic.
	SysSC System = iota
	// SysTSO is total store order: a FIFO store buffer per processor with
	// read forwarding, relaxing only W->R order.
	SysTSO
	// SysPSO is partial store order: per-address store buffers, additionally
	// relaxing W->W order across addresses.
	SysPSO
	// SysRMO is the RMO-ish model: PSO plus stale — per-location coherent —
	// read views, additionally relaxing R->R and R->W order.
	SysRMO
	// SysWODef1 is the paper's Definition-1 weak ordering over distributed
	// copies: synchronization waits for the issuer's outstanding accesses to
	// be globally performed.
	SysWODef1
	// SysWODef2 is the paper's Definition-2 weak ordering: synchronization
	// commits eagerly, and a per-location reservation blocks *other*
	// processors' synchronization until the reserver has drained.
	SysWODef2
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SysSC:
		return "sc"
	case SysTSO:
		return "tso"
	case SysPSO:
		return "pso"
	case SysRMO:
		return "rmo"
	case SysWODef1:
		return "wo-def1"
	case SysWODef2:
		return "wo-def2"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// Systems lists every supported system.
func Systems() []System {
	return []System{SysSC, SysTSO, SysPSO, SysRMO, SysWODef1, SysWODef2}
}

// ErrUnsupported marks programs outside the checker's fragment (loops,
// register-indexed addressing, more data writes than the machines' buffers
// hold without stalling).
var ErrUnsupported = errors.New("program outside the axiomatic fragment")

// ErrTooLarge marks programs whose candidate space exceeds the enumeration
// budgets; the checker refuses rather than returning a partial answer.
var ErrTooLarge = errors.New("candidate space exceeds axiomatic budgets")

// CounterpartFor maps an operational machine name (as registered in
// internal/litmus) to the axiomatic system specifying it, if one exists.
// The Figure-1 bus machines are the tso machine under their own names — a
// FIFO write buffer in front of an atomic memory (coherent caches included)
// is total store order — so all three map to the TSO axioms.
func CounterpartFor(machine string) (System, bool) {
	switch machine {
	case "SC":
		return SysSC, true
	case "tso", "bus+writebuffer", "bus+cache+writebuffer":
		return SysTSO, true
	case "pso":
		return SysPSO, true
	case "rmo":
		return SysRMO, true
	case "WO-def1", "RP3-fence":
		return SysWODef1, true
	case "WO-def2":
		return SysWODef2, true
	default:
		return 0, false
	}
}

// Supports reports (by nil error) that p lies in the checker's fragment:
// loop-free, statically addressed, and with at most maxDataWritesPerT data
// writes per thread — the bound under which neither the store-buffer depth
// nor the copies machines' miss window ever stalls an issue, so the finite
// machine resources impose no ordering the axioms don't know about.
func Supports(p *program.Program) error {
	for ti, code := range p.Threads {
		writes := 0
		for i, in := range code {
			if in.UseAddrReg {
				return fmt.Errorf("thread %d: register-indexed address: %w", ti, ErrUnsupported)
			}
			switch in.Op {
			case program.IBeq, program.IBne, program.IBlt, program.IJmp:
				if in.Target <= i {
					return fmt.Errorf("thread %d: backward branch at %d: %w", ti, i, ErrUnsupported)
				}
			case program.IStore:
				writes++
			}
		}
		if writes > maxDataWritesPerT {
			return fmt.Errorf("thread %d: %d data writes exceed the stall-free bound %d: %w",
				ti, writes, maxDataWritesPerT, ErrUnsupported)
		}
	}
	return nil
}

// Admitted returns every outcome of p the system admits, keyed by
// mem.Result.Key. The enumeration is exhaustive over the fragment Supports
// accepts; it fails with ErrUnsupported or ErrTooLarge instead of
// approximating.
func Admitted(p *program.Program, sys System) (map[string]mem.Result, error) {
	if err := Supports(p); err != nil {
		return nil, err
	}
	pools, err := valuePools(p)
	if err != nil {
		return nil, err
	}
	perThread := make([][][]ev, p.NumThreads())
	lens := make([]int, p.NumThreads())
	for ti, code := range p.Threads {
		perThread[ti], err = threadTraces(code, ti, pools)
		if err != nil {
			return nil, err
		}
		lens[ti] = len(perThread[ti])
	}
	admitted := make(map[string]mem.Result)
	budget := maxGraphChecks
	err = product(lens, maxCombos, func(pick []int) (bool, error) {
		traces := make([][]ev, len(pick))
		for i, k := range pick {
			traces[i] = perThread[i][k]
		}
		return false, admitCombo(newCombo(traces), p, sys, admitted, &budget)
	})
	if err != nil {
		return nil, err
	}
	return admitted, nil
}

// admitCombo enumerates the relational choices for one trace combination —
// coherence orders, then (per previously unseen outcome) synchronization
// orders and reads-from maps — recording each outcome for which some choice
// is consistent.
func admitCombo(c *combo, p *program.Program, sys System, admitted map[string]mem.Result, budget *int) error {
	// Reads-from candidates per read. A read may take any value-matching
	// write of another processor, its own processor's latest prior
	// same-address write (earlier own writes are shadowed on every model),
	// or the initial value if no own prior write exists.
	var readIDs []int
	var rfCands [][]int
	for id, e := range c.all {
		if !e.reads() {
			continue
		}
		wl := c.ownPrevWrite(id)
		var cands []int
		for wid, w := range c.all {
			if !w.writes() || w.addr != e.addr || w.wval != e.rval {
				continue
			}
			if w.proc == e.proc && wid != wl {
				continue
			}
			cands = append(cands, wid)
		}
		if wl < 0 && e.rval == initVal(p, e.addr) {
			cands = append(cands, -1)
		}
		if len(cands) == 0 {
			return nil // no write can justify this read: combo infeasible
		}
		readIDs = append(readIDs, id)
		rfCands = append(rfCands, cands)
	}
	rfLens := make([]int, len(readIDs))
	for i, cands := range rfCands {
		rfLens[i] = len(cands)
	}

	coAddrs, coOrders, err := ordersOf(c.writersByAddr())
	if err != nil {
		return err
	}
	coLens := make([]int, len(coOrders))
	for i, os := range coOrders {
		coLens[i] = len(os)
	}

	var soAddrs []mem.Addr
	var soOrders [][][]int
	soLens := []int(nil)
	if sys == SysWODef2 {
		soAddrs, soOrders, err = ordersOf(c.syncsByAddr())
		if err != nil {
			return err
		}
		soLens = make([]int, len(soOrders))
		for i, os := range soOrders {
			soLens[i] = len(os)
		}
	}

	rf := make([]int, len(c.all))
	return product(coLens, maxOrderProduct, func(coPick []int) (bool, error) {
		order := make(map[mem.Addr][]int, len(coAddrs))
		for i, a := range coAddrs {
			order[a] = coOrders[i][coPick[i]]
		}
		res := outcome(c, p, order)
		key := res.Key()
		if _, ok := admitted[key]; ok {
			return false, nil // already admitted via another candidate
		}
		co := newCoInfo(order)
		found := false
		err := product(soLens, maxOrderProduct, func(soPick []int) (bool, error) {
			so := make(map[mem.Addr][]int, len(soAddrs))
			for i, a := range soAddrs {
				so[a] = soOrders[i][soPick[i]]
			}
			err := product(rfLens, maxRfProduct, func(rfPick []int) (bool, error) {
				for i, id := range readIDs {
					rf[id] = rfCands[i][rfPick[i]]
				}
				ok, err := admits(sys, c, co, so, rf, budget)
				if err != nil {
					return true, err
				}
				found = ok
				return ok, nil
			})
			return found, err
		})
		if err != nil {
			return true, err
		}
		if found {
			admitted[key] = res
		}
		return false, nil
	})
}

// ordersOf expands per-processor chains into every linear extension, per
// location, returning locations in sorted order for determinism.
func ordersOf(chains map[mem.Addr][][]int) ([]mem.Addr, [][][]int, error) {
	addrs := make([]mem.Addr, 0, len(chains))
	for a := range chains {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	orders := make([][][]int, len(addrs))
	for i, a := range addrs {
		os, err := interleavings(chains[a], maxOrdersPerAddr)
		if err != nil {
			return nil, nil, err
		}
		orders[i] = os
	}
	return addrs, orders, nil
}

// outcome computes the observable result of a candidate: every read's value
// (fixed by the trace combination) and the final memory (the coherence-last
// write per location over the program's full static universe, matching
// model.initMem's domain).
func outcome(c *combo, p *program.Program, order map[mem.Addr][]int) mem.Result {
	res := mem.Result{
		Reads: make(map[mem.ReadKey]mem.Value),
		Final: make(map[mem.Addr]mem.Value),
	}
	for _, e := range c.all {
		if e.reads() {
			res.Reads[mem.ReadKey{Proc: mem.ProcID(e.proc), Index: e.idx}] = e.rval
		}
	}
	for _, a := range p.Addrs() {
		res.Final[a] = initVal(p, a)
	}
	for a, ids := range order {
		res.Final[a] = c.all[ids[len(ids)-1]].wval
	}
	return res
}
