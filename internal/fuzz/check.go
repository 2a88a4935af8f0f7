// Package fuzz implements the differential litmus fuzzer: it attacks the
// paper's Definition-2 contract — hardware is weakly ordered w.r.t. DRF0 iff
// it appears sequentially consistent to all DRF0 software — with far more
// programs than the hand-written litmus corpus holds.
//
// The pipeline has three stages, each usable on its own:
//
//   - Checker differentially runs one program on every machine under test
//     against the SC reference, asserting outcome-set containment
//     (outcomes(M, P) ⊆ outcomes(SC, P)) for DRF0 programs and recording —
//     but not failing on — non-SC outcomes of racy ones. One SC exploration
//     (model.Explorer.CheckSC) yields both the DRF0 verdict and the SC
//     outcome set. With an auto-sized explorer (negative Workers, the
//     service's setting) the SC pass and the machine explorations run side
//     by side, with the report and error of running them in order.
//   - Minimize delta-debugs a violating program (drop threads, drop
//     instructions, merge addresses), re-verifying after every step that the
//     program still obeys DRF0 and the violation still reproduces.
//   - EmitGo / EmitLitmus render a minimized reproducer as ready-to-paste
//     program.Builder code and as a corpus file in the repository's litmus
//     text format.
//
// Three harnesses drive the pipeline: the native `go test -fuzz=FuzzContract`
// target in this package (seed corpus under testdata/fuzz/), the cmd/wofuzz
// CLI, and the nightly CI fuzz workflow.
package fuzz

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"weakorder/internal/axiomatic"
	"weakorder/internal/core"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// Checker differentially tests programs against the SC reference.
// The zero value checks every weakly ordered machine with a trace-bounded
// default explorer, one exploration after another; an explorer with negative
// Workers fans them out (see Check).
type Checker struct {
	// Explorer configures exploration; nil uses DefaultExplorer().
	Explorer *model.Explorer
	// Machines are the hardware models under test; nil means
	// litmus.WeaklyOrderedFactories() — the machines that *claim* the
	// contract and must therefore never violate it.
	Machines []litmus.Factory
	// Axiomatic additionally cross-validates every machine that has an
	// axiomatic counterpart (axiomatic.CounterpartFor): the operational
	// outcome set must equal the axiomatically admitted set exactly, in both
	// directions. Programs outside the checker's fragment — or past its
	// enumeration budgets — are skipped per machine, visible as an empty
	// MachineReport.Axiomatic.
	Axiomatic bool
}

// DefaultExplorer returns the exploration settings the fuzzing harnesses use:
// Result-preserving enumeration bounded enough that a pathological random
// program aborts with model.ErrStateBudget instead of hanging the run.
func DefaultExplorer() *model.Explorer {
	return &model.Explorer{MaxTraceOps: 40, MaxStates: 400_000}
}

func (c *Checker) explorer() *model.Explorer {
	if c.Explorer != nil {
		return c.Explorer
	}
	return DefaultExplorer()
}

func (c *Checker) machines() []litmus.Factory {
	if c.Machines != nil {
		return c.Machines
	}
	return litmus.WeaklyOrderedFactories()
}

// MachineReport is one machine's verdict on one program.
type MachineReport struct {
	Machine  string
	Outcomes int
	// Extra lists outcomes the machine produced outside the SC set. On a
	// DRF0 program any entry is a Definition-2 violation; on a racy program
	// entries are informational (evidence the relaxations are real).
	Extra []mem.Result
	// Axiomatic names the counterpart system this machine was cross-checked
	// against; empty when the check was off, the machine has no counterpart,
	// or the program lies outside the axiomatic fragment/budgets.
	Axiomatic string
	// MissingAxiomatic lists operational outcomes the axioms reject, and
	// ExtraAxiomatic outcomes the axioms admit but the machine never
	// produces. Either being non-empty means machine and specification
	// disagree — a bug in one of them.
	MissingAxiomatic []mem.Result
	ExtraAxiomatic   []mem.Result
}

// Report is the differential verdict for one program.
type Report struct {
	Prog       *program.Program
	DRF0       bool // whether the program obeys DRF0 (Definition 3)
	SCOutcomes int
	// States totals the distinct states visited across the SC pass (which
	// decides DRF0 too) and every machine exploration — the effort this
	// verdict cost to compute.
	// The campaign cache stores it so a cache hit can answer with the
	// original figure while demonstrably doing zero new exploration.
	States   int64
	Machines []MachineReport
}

// Violating returns the machines that broke the Definition-2 contract on this
// program: produced an outcome outside the SC set although the program obeys
// DRF0. Empty for racy programs by construction.
func (r *Report) Violating() []string {
	if !r.DRF0 {
		return nil
	}
	var out []string
	for _, m := range r.Machines {
		if len(m.Extra) > 0 {
			out = append(out, m.Machine)
		}
	}
	return out
}

// AxiomaticDisagreements returns the machines whose operational outcome set
// differed — in either direction — from their axiomatic counterpart's
// admitted set. Always empty unless Checker.Axiomatic was set.
func (r *Report) AxiomaticDisagreements() []string {
	var out []string
	for _, m := range r.Machines {
		if len(m.MissingAxiomatic) > 0 || len(m.ExtraAxiomatic) > 0 {
			out = append(out, m.Machine)
		}
	}
	return out
}

// RacyNonSC reports whether the program is racy AND some machine produced a
// non-SC outcome on it — the informational counterpart of a violation.
func (r *Report) RacyNonSC() bool {
	if r.DRF0 {
		return false
	}
	for _, m := range r.Machines {
		if len(m.Extra) > 0 {
			return true
		}
	}
	return false
}

// Check runs the full differential pipeline on one program: one SC
// exploration decides DRF0 (Definition 3) and collects the SC outcome set,
// then Definition-2 containment is checked for every machine under test.
//
// The SC pass and the machine explorations (each with its axiomatic
// cross-validation) are the items of one par.ForEach. With a negative
// Explorer.Workers it is auto-sized from the par budget; otherwise it is 1,
// which runs the items inline and in order. Every item explores with the
// checker's explorer, and ForEach registers its width, so a nested
// exploration claims spare slots only when the fan-out leaves some. Once item
// j fails, the items above j that have not started are skipped, and the
// error is the lowest-index failure: the one running the items in order
// returns. The report is assembled in factory order, so it is the same at
// every fan-out width; States too, whenever the explorations themselves run
// serially (see model.Explorer.Workers).
//
// On error the report is nil, except after a state-budget error
// (errors.Is(err, model.ErrStateBudget)), when it holds Prog and States only:
// the states of every exploration that ran, the one that hit the budget
// counted at its StateBudgetError.States.
func (c *Checker) Check(p *program.Program) (*Report, error) {
	v := &verdict{p: p, x: c.explorer(), machines: c.machines()}
	n := 1 + len(v.machines)
	v.outs = make([]core.OutcomeSet, n-1)
	v.mreps = make([]MachineReport, n-1)
	v.states = make([]int, n)
	v.admitted = make(map[axiomatic.System]map[string]mem.Result)
	var failed atomic.Int64 // the lowest failed item so far
	failed.Store(int64(n))
	width := 1
	if v.x.Workers < 0 {
		width = 0
	}
	err := par.ForEach(n, width, func(i int) error {
		if failed.Load() < int64(i) {
			return nil
		}
		err := c.checkItem(v, i)
		if err != nil {
			var budget *model.StateBudgetError
			if errors.As(err, &budget) {
				v.states[i] = budget.States
			}
			for cur := failed.Load(); int64(i) < cur; cur = failed.Load() {
				if failed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
		return err
	})
	rep := &Report{Prog: p}
	for _, st := range v.states {
		rep.States += int64(st)
	}
	if err != nil {
		if errors.Is(err, model.ErrStateBudget) {
			return rep, err
		}
		return nil, err
	}
	rep.DRF0 = v.sc.Race == nil
	rep.SCOutcomes = len(v.sc.Outcomes)
	for i, f := range v.machines {
		v.mreps[i].Extra = core.CheckContract(p.Name, f.Name, rep.DRF0, v.sc.Outcomes, v.outs[i]).Extra
	}
	rep.Machines = v.mreps
	return rep, nil
}

// verdict is the state Check's fan-out shares. Each item writes only its own
// slots, except the memoized admitted sets, which are under mu.
type verdict struct {
	p        *program.Program
	x        *model.Explorer
	machines []litmus.Factory
	sc       *model.SCPass
	outs     []core.OutcomeSet // per machine
	mreps    []MachineReport   // per machine, Extra filled in at assembly
	states   []int             // per item: the distinct states it explored
	// admitted memoizes axiomatically admitted sets per system: several
	// machines (e.g. the tso model and the Figure-1 bus machines) share one
	// specification.
	mu       sync.Mutex
	admitted map[axiomatic.System]map[string]mem.Result
}

// checkItem runs item i of Check's fan-out: the SC pass (i = 0), or the
// exploration and cross-validation of machine i-1.
func (c *Checker) checkItem(v *verdict, i int) error {
	p := v.p
	if i == 0 {
		sc, err := v.x.CheckSC(p, false)
		if err != nil {
			return fmt.Errorf("fuzz: SC pass of %s: %w", p.Name, err)
		}
		v.sc, v.states[0] = sc, sc.Stats.States
		return nil
	}
	f := v.machines[i-1]
	hwOut, st, err := v.x.Outcomes(f.New(p))
	v.states[i] = st.States
	if err != nil {
		return fmt.Errorf("fuzz: %s outcomes of %s: %w", f.Name, p.Name, err)
	}
	v.outs[i-1] = hwOut
	v.mreps[i-1] = MachineReport{Machine: f.Name, Outcomes: len(hwOut)}
	if c.Axiomatic {
		return v.crossValidate(f.Name, hwOut, &v.mreps[i-1])
	}
	return nil
}

// crossValidate compares one machine's operational outcome set against its
// axiomatic counterpart's admitted set, recording any disagreement in mrep.
func (v *verdict) crossValidate(machine string, hwOut core.OutcomeSet, mrep *MachineReport) error {
	sys, ok := axiomatic.CounterpartFor(machine)
	if !ok {
		return nil
	}
	adm, err := v.admittedSet(sys)
	if errors.Is(err, axiomatic.ErrUnsupported) || errors.Is(err, axiomatic.ErrTooLarge) {
		return nil // outside the fragment/budgets: skip, leaving Axiomatic empty
	}
	if err != nil {
		return fmt.Errorf("fuzz: axiomatic %s on %s: %w", sys, v.p.Name, err)
	}
	mrep.Axiomatic = sys.String()
	for k, r := range hwOut {
		if _, ok := adm[k]; !ok {
			mrep.MissingAxiomatic = append(mrep.MissingAxiomatic, r)
		}
	}
	for k, r := range adm {
		if _, ok := hwOut[k]; !ok {
			mrep.ExtraAxiomatic = append(mrep.ExtraAxiomatic, r)
		}
	}
	return nil
}

// admittedSet returns the memoized admitted set of sys.
func (v *verdict) admittedSet(sys axiomatic.System) (map[string]mem.Result, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if adm, ok := v.admitted[sys]; ok {
		return adm, nil
	}
	adm, err := axiomatic.Admitted(v.p, sys)
	if err == nil {
		v.admitted[sys] = adm
	}
	return adm, err
}

// violates reports whether the program (a) obeys DRF0 and (b) still produces
// an outcome outside the SC set on the single given machine. It is the
// predicate the shrinker re-verifies after every candidate reduction; any
// exploration error (state budget, deadlock introduced by a bad reduction)
// counts as "does not violate" so the candidate is simply rejected.
func violates(p *program.Program, f litmus.Factory, x *model.Explorer) bool {
	if p == nil || len(p.Threads) == 0 || p.Validate() != nil {
		return false
	}
	sc, err := x.CheckSC(p, true)
	if err != nil || sc.Race != nil {
		return false
	}
	hwOut, _, err := x.Outcomes(f.New(p))
	if err != nil {
		return false
	}
	for k := range hwOut {
		if _, ok := sc.Outcomes[k]; !ok {
			return true
		}
	}
	return false
}
