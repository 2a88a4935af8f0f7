package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"weakorder/internal/mem"
)

// Race is a pair of conflicting accesses left unordered by happens-before —
// a data race under the chosen synchronization model.
type Race struct {
	A, B mem.Event
}

// String implements fmt.Stringer.
func (r Race) String() string {
	return fmt.Sprintf("race: %s <-> %s (unordered, conflicting)", r.A.Access, r.B.Access)
}

// Report is the verdict of checking one idealized execution against a
// synchronization model.
type Report struct {
	Model string
	Races []Race
	// Exec is the execution that was checked.
	Exec *mem.Execution
}

// Free reports whether the execution is race-free (obeys the model).
func (r *Report) Free() bool { return len(r.Races) == 0 }

// String implements fmt.Stringer.
func (r *Report) String() string {
	if r.Free() {
		return fmt.Sprintf("execution obeys %s (no unordered conflicting accesses)", r.Model)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "execution violates %s: %d race(s)\n", r.Model, len(r.Races))
	for _, rc := range r.Races {
		fmt.Fprintf(&b, "  %s\n", rc)
	}
	return strings.TrimRight(b.String(), "\n")
}

// CheckExecution applies Definition 3's per-execution condition: in the given
// idealized execution, every pair of conflicting accesses must be ordered by
// the happens-before relation of that execution. It additionally enforces
// DRF0's restriction (1): a synchronization operation accesses exactly one
// location — true by construction here, since every mem.Access names one
// address; the restriction is retained as documentation of why multi-location
// swaps are not expressible.
//
// It decides with vector clocks in one pass over the completion order,
// without building BuildOrders' relations: each processor carries a clock,
// and each location a release clock that a later synchronization operation
// acquires when the model's edge rule lets it. An access is stamped with its
// processor's own clock component (an epoch), and an earlier access
// happens-before a later one exactly when the later processor's clock has
// reached that stamp. Each processor's events are read in completion order,
// which is their program order in every idealized execution. Races are
// listed once per pair, the lower event ID as A, sorted by (A.ID, B.ID).
//
// The initial state needs no special casing: the paper's hypothetical
// initializing writes happen-before every real access, so they can race with
// nothing.
func CheckExecution(e *mem.Execution, m SyncModel) (*Report, error) {
	if e.Completed == nil {
		return nil, fmt.Errorf("core: execution has no completion order; CheckExecution requires an idealized execution")
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid execution: %w", err)
	}
	n := e.NumProcs
	clocks := make([]int, n*n) // processor p's clock is clocks[p*n : p*n+n]
	locs := make(map[mem.Addr]*location)
	rep := &Report{Model: m.Name(), Exec: e}
	for _, id := range e.Completed {
		ev := e.Event(id)
		p := int(ev.Proc)
		me := clocks[p*n : p*n+n]
		loc := locs[ev.Addr]
		if loc == nil {
			loc = new(location)
			locs[ev.Addr] = loc
		}
		sync := ev.Op.IsSync()
		if sync && loc.release != nil && m.SyncEdge(syncRW(ev.Addr), ev) {
			join(me, loc.release)
		}
		// A write conflicts with every earlier access, a read with the
		// earlier writes; each earlier access sits in one of the two lists,
		// so each pair is checked once.
		if ev.Op.Writes() {
			rep.Races = appendRaces(rep.Races, e, ev, me, loc.reads)
		}
		rep.Races = appendRaces(rep.Races, e, ev, me, loc.writes)
		me[p]++
		if sync && m.SyncEdge(ev, syncRW(ev.Addr)) {
			if loc.release == nil {
				loc.release = make([]int, n)
			}
			join(loc.release, me)
		}
		a := access{id: id, proc: p, stamp: me[p]}
		if ev.Op.Writes() {
			loc.writes = append(loc.writes, a)
		} else {
			loc.reads = append(loc.reads, a)
		}
	}
	slices.SortFunc(rep.Races, func(x, y Race) int {
		return cmp.Or(cmp.Compare(x.A.ID, y.A.ID), cmp.Compare(x.B.ID, y.B.ID))
	})
	return rep, nil
}

// syncRW is a read-write synchronization counterpart on a. Every SyncModel
// here decides an edge s1 → s2 by one test on s1 and one on s2, so
// SyncEdge(s, syncRW) asks whether s can release to any later sync, and
// SyncEdge(syncRW, s) whether s can acquire from any earlier one.
func syncRW(a mem.Addr) mem.Event {
	return mem.Event{Access: mem.Access{Op: mem.OpSyncRMW, Addr: a}}
}

// access is an earlier access to a location: its event, its processor and
// its epoch, that processor's own clock component just after the access.
type access struct {
	id    mem.EventID
	proc  int
	stamp int
}

// location is CheckExecution's record of one address: its earlier accesses
// that write, those that only read, and its release clock (nil until a sync
// here releases).
type location struct {
	writes, reads []access
	release       []int
}

// appendRaces appends a Race for every access in prior, each conflicting with
// ev, that does not happen-before ev, whose processor's clock is me. A
// processor's own component has reached the stamp of each of its earlier
// accesses, so program order needs no separate test. Two synchronization
// operations never race: the hardware arbitrates them (condition 3 of
// Section 5.1 totally orders them), even under DRF1, where a read-only sync
// orders nothing yet a spinning Test merely retries.
func appendRaces(races []Race, e *mem.Execution, ev mem.Event, me []int, prior []access) []Race {
	for _, a := range prior {
		if me[a.proc] >= a.stamp {
			continue
		}
		other := e.Event(a.id)
		if ev.Op.IsSync() && other.Op.IsSync() {
			continue
		}
		if other.ID > ev.ID {
			races = append(races, Race{A: ev, B: other})
		} else {
			races = append(races, Race{A: other, B: ev})
		}
	}
	return races
}

// join sets c to the pointwise maximum of c and o.
func join(c, o []int) {
	for i, x := range o {
		if x > c[i] {
			c[i] = x
		}
	}
}

// ExecutionEnumerator supplies the idealized executions of a program.
// internal/model's Explorer implements it; Definition 3 quantifies over all
// executions on the idealized architecture, and CheckProgram consumes exactly
// that set.
type ExecutionEnumerator interface {
	// IdealizedExecutions invokes fn for every distinct execution of the
	// program on the idealized architecture (atomic accesses, program
	// order). Enumeration stops early if fn returns false.
	IdealizedExecutions(fn func(*mem.Execution) bool) error
}

// DRF0Decider is an optional extension of ExecutionEnumerator for
// enumerators that can decide DRF0 inside one outcome search instead of
// checking every idealized execution (model.Enumerator over the SC machine;
// DESIGN.md §"Single-pass DRF0"). CheckProgram consults it for DRF0 with
// maxViolations == 1, the plain question "does the program obey DRF0?".
type DRF0Decider interface {
	// DecideDRF0 returns the verdict, with at most one certified violation.
	DecideDRF0() (*ProgramReport, error)
}

// ProgramReport aggregates per-execution verdicts over all idealized
// executions of a program (Definition 3 proper).
type ProgramReport struct {
	Model string
	// Executions counts what the verdict examined. Enumeration counts every
	// idealized execution it checked. A DRF0Decider's single pass counts the
	// distinct SC results its outcome search reached, one complete execution
	// per result; on a racy program, only those reached before the first
	// race.
	Executions int
	// Violations holds the report of every racy execution found (capped by
	// the maxViolations argument of CheckProgram).
	Violations []*Report
}

// Obeys reports whether the program obeys the synchronization model: every
// idealized execution is race-free.
func (p *ProgramReport) Obeys() bool { return len(p.Violations) == 0 }

// String implements fmt.Stringer.
func (p *ProgramReport) String() string {
	if p.Obeys() {
		return fmt.Sprintf("program obeys %s (%d idealized executions checked)", p.Model, p.Executions)
	}
	return fmt.Sprintf("program violates %s: %d of %d idealized executions have races",
		p.Model, len(p.Violations), p.Executions)
}

// CheckProgram decides Definition 3 for a whole program by checking every
// idealized execution produced by the enumerator. maxViolations > 0 stops
// enumeration after that many racy executions (the verdict is already
// negative); pass 0 to collect them all. DRF0 with maxViolations == 1 goes to
// the enumerator's DRF0Decider when it has one.
func CheckProgram(enum ExecutionEnumerator, m SyncModel, maxViolations int) (*ProgramReport, error) {
	if d, ok := enum.(DRF0Decider); ok && maxViolations == 1 {
		if _, isDRF0 := m.(DRF0); isDRF0 {
			return d.DecideDRF0()
		}
	}
	rep := &ProgramReport{Model: m.Name()}
	var innerErr error
	err := enum.IdealizedExecutions(func(e *mem.Execution) bool {
		rep.Executions++
		r, err := CheckExecution(e, m)
		if err != nil {
			innerErr = err
			return false
		}
		if !r.Free() {
			rep.Violations = append(rep.Violations, r)
			if maxViolations > 0 && len(rep.Violations) >= maxViolations {
				return false
			}
		}
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}
