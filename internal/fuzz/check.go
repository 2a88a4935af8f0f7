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
//     outcome set, and machines sharing a behaviour identity
//     (model.Behavior) are explored once and reported under every name, each
//     as a core.ContractReport. Every exploration runs serially, so a
//     verdict, States included, depends on the program, the machines and
//     the budgets alone. With an auto-sized explorer (negative Workers, the
//     service's setting) the SC pass and the machine explorations run side
//     by side, with the report and error of running them in order.
//     Checker.Check is the one composition of a verdict: the
//     facade's weakorder.VerifyContract is a one-machine Check, and so is the
//     non-SC outcome list of a campaign reproducer's header.
//   - Minimize delta-debugs a violating program (drop threads, drop
//     instructions, merge addresses), re-verifying after every step that the
//     program still obeys DRF0 and the violation still reproduces. That
//     predicate needs one witness, so its machine exploration stops at the
//     first non-SC outcome, and it explores serially at every width, so its
//     answer does not depend on a schedule.
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
	"sync/atomic"

	"weakorder/internal/core"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// Checker differentially tests programs against the SC reference.
// The zero value checks every weakly ordered machine with a trace-bounded
// default explorer, one exploration after another; an explorer with negative
// Workers runs them side by side (see Check).
type Checker struct {
	// Explorer configures exploration; nil uses DefaultExplorer().
	Explorer *model.Explorer
	// Machines are the hardware models under test; nil means
	// litmus.WeaklyOrderedFactories() — the machines that *claim* the
	// contract and must therefore never violate it.
	Machines []litmus.Factory
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

// Report is the differential verdict for one program.
type Report struct {
	Prog       *program.Program
	DRF0       bool // whether the program obeys DRF0 (Definition 3)
	SCOutcomes int
	// States totals the distinct states visited across the explorations
	// that ran: the SC pass (which decides DRF0 too) and one exploration per
	// behaviour identity among the machines — the effort this verdict cost
	// to compute.
	// The campaign cache stores it so a cache hit can answer with the
	// original figure while demonstrably doing zero new exploration.
	States int64
	// Machines holds one Definition-2 verdict per machine under test, in
	// factory order and under the factory's name (Hardware). Extra lists the
	// outcomes a machine produced outside the SC set: on a DRF0 program any
	// entry is a violation; on a racy one entries are informational
	// (evidence the relaxations are real).
	Machines []*core.ContractReport
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
			out = append(out, m.Hardware)
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
// Factories whose machines share a behaviour identity (model.Behavior) are
// explored once, by the first of them in factory order, and every one of them
// is reported from that outcome set, as a core.ContractReport under its own
// name.
//
// The SC pass and the machine explorations are the items of one
// par.ForEach. With a negative Explorer.Workers it is auto-sized from the par
// budget; otherwise it is 1, which runs the items inline and in order. Every
// item explores serially, whatever Explorer.Workers says: how many states a
// reduced search visits before a budget trips depends on the order it visits
// them in, and only the serial kernel fixes that order. Once item j fails,
// the items above j that have not started are skipped, and the error is the
// lowest-index failure: the one running the items in order returns. The
// report is assembled in factory order, so it is the in-order run's at every
// fan-out width, States included.
//
// On error the report is nil, except after a state-budget error
// (errors.Is(err, model.ErrStateBudget)), when it holds Prog and States only:
// the states of every exploration that ran, the one that hit the budget
// counted at its StateBudgetError.States.
func (c *Checker) Check(p *program.Program) (*Report, error) {
	v := &verdict{p: p, x: *c.explorer()}
	width := 1
	if v.x.Workers < 0 {
		width = 0
	}
	v.x.Workers = 0
	machines := c.machines()
	run := make([]int, len(machines)) // per factory: its exploration
	first := make(map[model.Behavior]int, len(machines))
	for i, f := range machines {
		m := f.New(p)
		id := m.Behavior()
		j, ok := first[id]
		if !ok {
			j = len(v.ms)
			first[id] = j
			v.ms = append(v.ms, m)
			v.names = append(v.names, f.Name)
		}
		run[i] = j
	}
	n := 1 + len(v.ms)
	v.outs = make([]core.OutcomeSet, n-1)
	v.states = make([]int, n)
	var failed atomic.Int64 // the lowest failed item so far
	failed.Store(int64(n))
	err := par.ForEach(n, width, func(i int) error {
		if failed.Load() < int64(i) {
			return nil
		}
		err := v.item(i)
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
	rep.Machines = make([]*core.ContractReport, len(machines))
	for i, f := range machines {
		rep.Machines[i] = core.CheckContract(p.Name, f.Name, rep.DRF0, v.sc.Outcomes, v.outs[run[i]])
	}
	return rep, nil
}

// verdict is the state Check's fan-out shares: item 0 is the SC pass, item
// j > 0 explores ms[j-1], each with the serial explorer x. Each item writes
// only its own slots.
type verdict struct {
	p      *program.Program
	x      model.Explorer
	sc     *model.SCPass
	ms     []model.Machine   // per exploration: one machine per identity
	names  []string          // per exploration: its factory's name
	outs   []core.OutcomeSet // per exploration
	states []int             // per item: the distinct states it explored
}

// item runs item i of Check's fan-out.
func (v *verdict) item(i int) error {
	if i == 0 {
		sc, err := v.x.CheckSC(v.p, false)
		if err != nil {
			return fmt.Errorf("fuzz: SC pass of %s: %w", v.p.Name, err)
		}
		v.sc, v.states[0] = sc, sc.Stats.States
		return nil
	}
	out, st, err := v.x.Outcomes(v.ms[i-1])
	v.states[i] = st.States
	if err != nil {
		return fmt.Errorf("fuzz: %s outcomes of %s: %w", v.names[i-1], v.p.Name, err)
	}
	v.outs[i-1] = out
	return nil
}

// violates reports whether the program (a) obeys DRF0 and (b) still produces
// an outcome outside the SC set on the single given machine. It is the
// predicate the shrinker re-verifies after every candidate reduction. One
// witness answers it, so the machine exploration stops at the first result
// outside the SC set, and a witness accepts the candidate whatever error the
// stopped run returns. Any error before a witness (state budget, deadlock
// introduced by a bad reduction), or in the SC pass, counts as "does not
// violate", so the candidate is simply rejected. Both explorations run
// serially whatever x.Workers says: the serial kernel visits states in one
// fixed order, so whether a witness comes before the budget trips — and hence
// the answer — is a function of the candidate and x alone.
func violates(p *program.Program, f litmus.Factory, x *model.Explorer) bool {
	if p == nil || len(p.Threads) == 0 || p.Validate() != nil {
		return false
	}
	serial := *x
	serial.Workers = 0
	sc, err := serial.CheckSC(p, true)
	if err != nil || sc.Race != nil {
		return false
	}
	hw := serial
	hw.Mode = max(hw.Mode, model.KeyResult) // Outcomes' granularity: no two Results merge
	witness := false
	var key []byte
	// The run's error decides nothing: the witness alone does.
	_, _ = hw.Visit(f.New(p), func(m model.Machine) bool {
		key = m.AppendResultKey(key[:0])
		_, ok := sc.Outcomes[string(key)]
		witness = !ok
		return ok
	})
	return witness
}
