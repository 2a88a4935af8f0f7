package model

import (
	"fmt"
	"sync/atomic"

	"weakorder/internal/core"
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// SCPass is the result of one SC exploration that collects the outcome set
// and decides DRF0 in the same search.
type SCPass struct {
	// Outcomes is the SC outcome set. It is partial when the pass stopped at
	// the first race.
	Outcomes core.OutcomeSet
	Stats    Stats
	// Race is nil when the program obeys DRF0. Otherwise it is the
	// core.CheckExecution report of a certified racy idealized execution: the
	// trace of a reached state that enables two conflicting accesses of
	// different processors, not both sync, followed by those two accesses.
	Race *core.Report
}

// CheckSC explores p once on the SC machine at KeyResult granularity (or the
// finer x.Mode), collecting the outcome set and deciding DRF0 as it goes: the
// program is racy iff some state the search enters enables two conflicting
// accesses of different processors that are not both synchronization. The
// reduced search still enters such a state whenever one is reachable; see
// DESIGN.md §"Single-pass DRF0". With stopAtRace, every state after the first
// racy one is pruned (and counted in Stats.Truncated), so a racy verdict
// returns promptly with partial Outcomes.
//
// A racy verdict is certified: the witness execution is run through
// core.CheckExecution, and a race-free witness is reported as an internal
// error rather than as a verdict.
func (x *Explorer) CheckSC(p *program.Program, stopAtRace bool) (*SCPass, error) {
	sub := *x
	if sub.Mode < KeyResult {
		sub.Mode = KeyResult
	}
	probe := &raceProbe{stop: stopAtRace}
	out := make(core.OutcomeSet)
	st, err := sub.visit(NewSC(p), probe, collect(out))
	if err != nil {
		return nil, err
	}
	pass := &SCPass{Outcomes: out, Stats: st}
	if probe.racy.Load() {
		if pass.Race, err = probe.certify(); err != nil {
			return nil, fmt.Errorf("model: SC pass of %s: %w", p.Name, err)
		}
	}
	return pass, nil
}

// raceProbe watches the states an SC exploration enters for a pair of
// co-enabled racing accesses. Every clone of the explored system shares one
// probe, so the flag is atomic for the parallel kernel; the worker that flips
// it owns the witness fields, which are read only after the run returns.
type raceProbe struct {
	stop bool // prune every state entered after the first race
	racy atomic.Bool
	// The racy state and the two co-enabled steps, kept to build the witness.
	state Machine
	a, b  explore.Step
}

// observe checks one entered state's enabled steps.
func (r *raceProbe) observe(m Machine, steps []explore.Step) {
	if r.racy.Load() {
		return
	}
	for i := range steps {
		for j := i + 1; j < len(steps); j++ {
			if races(steps[i], steps[j]) && r.racy.CompareAndSwap(false, true) {
				r.state, r.a, r.b = m.CloneInto(nil), steps[i], steps[j]
				return
			}
		}
	}
}

// halted reports whether the search should prune everything from here on.
func (r *raceProbe) halted() bool { return r.stop && r.racy.Load() }

// races reports whether two co-enabled steps form a DRF0 race: different
// agents, the same address, conflicting operations, not both sync.
func races(a, b explore.Step) bool {
	return !a.Opaque && !b.Opaque && a.Agent != b.Agent && a.Addr == b.Addr &&
		mem.Conflicts(a.Op, b.Op) && !(a.Op.IsSync() && b.Op.IsSync())
}

// certify extends the racy state's trace by the two co-enabled accesses and
// checks the resulting execution with core.CheckExecution.
func (r *raceProbe) certify() (*core.Report, error) {
	m := r.state
	for _, t := range []explore.Step{r.a, r.b} {
		if err := m.Apply(t); err != nil {
			return nil, fmt.Errorf("building race witness: %w", err)
		}
	}
	rep, err := core.CheckExecution(m.Trace(), core.DRF0{})
	if err != nil {
		return nil, fmt.Errorf("checking race witness: %w", err)
	}
	if rep.Free() {
		return nil, fmt.Errorf("internal error: co-enabled %s and %s left a race-free witness", r.a, r.b)
	}
	return rep, nil
}
