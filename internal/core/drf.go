package core

import (
	"fmt"
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
	Model  string
	Races  []Race
	Orders *Orders
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
// The initial state needs no special casing: the paper's hypothetical
// initializing writes happen-before every real access, so they can race with
// nothing.
func CheckExecution(e *mem.Execution, m SyncModel) (*Report, error) {
	ord, err := BuildOrders(e, m)
	if err != nil {
		return nil, err
	}
	rep := &Report{Model: m.Name(), Orders: ord}
	n := e.Len()
	for i := 0; i < n; i++ {
		ei := e.Event(mem.EventID(i))
		for j := i + 1; j < n; j++ {
			ej := e.Event(mem.EventID(j))
			if !ei.ConflictsWith(ej.Access) {
				continue
			}
			// Two synchronization operations on the same location are never
			// a data race: the hardware arbitrates them by definition
			// (condition 3 of Section 5.1 totally orders them). Under DRF0
			// they are so-ordered anyway; under the DRF1 refinement a
			// read-only sync contributes no ordering edge, yet its conflict
			// with a sync write is still hardware-arbitrated — a spinning
			// Test merely retries.
			if ei.Op.IsSync() && ej.Op.IsSync() {
				continue
			}
			if !ord.Ordered(ei.ID, ej.ID) {
				rep.Races = append(rep.Races, Race{A: ei, B: ej})
			}
		}
	}
	return rep, nil
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
	// DecideDRF0 returns the verdict, with at most one certified violation,
	// or ok == false when this enumerator cannot decide directly, in which
	// case CheckProgram enumerates.
	DecideDRF0() (rep *ProgramReport, ok bool, err error)
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
			if rep, decided, err := d.DecideDRF0(); decided {
				return rep, err
			}
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
