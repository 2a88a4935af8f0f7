package fuzz

import (
	"errors"
	"fmt"
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// paddedWitness is TestMinimizeDropsJunk's input: the guarded
// message-passing witness against the reserve-bit ablation, padded with junk
// instructions and a bystander thread. Its SC pass enters 10 states and its
// WO-def2-noreserve exploration 37.
func paddedWitness() *program.Program {
	b := program.NewBuilder("padded")
	b.Thread()
	b.Nop(1)
	b.Store(101, program.Imm(7))
	b.Load(3, 102)
	b.SyncStore(200, program.Imm(1))
	b.Halt()
	b.Thread()
	b.Mov(2, program.Imm(9))
	b.SyncLoad(0, 200)
	b.Beq(0, program.Imm(0), "skip")
	b.Load(1, 101)
	b.Label("skip")
	b.Halt()
	b.Thread()
	b.Load(2, 102)
	b.Halt()
	return b.MustBuild()
}

// TestViolates pins the shrinker's predicate row by row, with the explorer
// serial (Workers 0) and auto-sized (Workers -1): a DRF0 candidate is
// accepted once its machine exploration reaches an outcome outside the SC
// set, even if a state budget would stop that exploration later, and
// rejected when it is racy, invalid, empty, or when an error comes before
// any witness. The predicate explores serially at every Workers setting, so
// every row holds at both, and the row whose witness comes just before the
// budget is repeated at a par width of 4, where an auto-sized exploration
// would run four workers.
func TestViolates(t *testing.T) {
	p := paddedWitness()
	const hwStates = 37 // the machine exploration of p, in full

	// The racy candidate: the flag written and read as data. The machine
	// still produces a non-SC outcome on it, so only the race rejects it.
	b := program.NewBuilder("mp-data")
	b.Thread()
	b.Store(101, program.Imm(7))
	b.Store(200, program.Imm(1))
	b.Halt()
	b.Thread()
	b.Load(0, 200)
	b.Beq(0, program.Imm(0), "skip")
	b.Load(1, 101)
	b.Label("skip")
	b.Halt()
	racy := b.MustBuild()
	if rep, err := (&Checker{Machines: []litmus.Factory{noReserve()}}).Check(racy); err != nil || !rep.RacyNonSC() {
		t.Fatalf("%s: report %+v, error %v; want a racy program with a non-SC outcome", racy.Name, rep, err)
	}

	// The consumer's branch targets its halt: dropping it dangles the branch.
	dangling := dropOp(p, 1, 4)
	if dangling.Validate() == nil {
		t.Fatal("dropping the branch target left a valid program")
	}

	// At the row's budget the full exploration fails, so the predicate
	// before the early stop rejected this candidate.
	tight := &model.Explorer{MaxTraceOps: 40, MaxStates: hwStates - 1}
	if _, _, err := tight.Outcomes(noReserve().New(p)); !errors.Is(err, model.ErrStateBudget) {
		t.Fatalf("full exploration within %d states: error %v, want the state budget", hwStates-1, err)
	}

	type row struct {
		name string
		p    *program.Program
		f    string
		max  int // MaxStates; 0 = DefaultExplorer's
		want bool
	}
	beforeBudget := row{name: "witness before the budget", p: p, f: "WO-def2-noreserve", max: hwStates - 1, want: true}
	rows := []row{
		{name: "witness", p: p, f: "WO-def2-noreserve", want: true},
		beforeBudget,
		{name: "no witness", p: p, f: "WO-def2"},
		{name: "racy", p: racy, f: "WO-def2-noreserve"},
		{name: "dangling branch", p: dangling, f: "WO-def2-noreserve"},
		{name: "empty", p: &program.Program{Name: "empty"}, f: "WO-def2-noreserve"},
	}
	// Budgets below the SC pass's 10 states fail before any witness.
	for budget := 1; budget < 10; budget++ {
		rows = append(rows, row{name: fmt.Sprintf("budget %d", budget), p: p, f: "WO-def2-noreserve", max: budget})
	}
	check := func(t *testing.T, r row, workers int) {
		t.Helper()
		x := DefaultExplorer()
		if r.max > 0 {
			x.MaxStates = r.max
		}
		x.Workers = workers
		if got := violates(r.p, mustFactory(t, r.f), x); got != r.want {
			t.Errorf("violates(%s, %s) at Workers %d = %v, want %v", r.p.Name, r.f, workers, got, r.want)
		}
	}
	for _, workers := range []int{0, -1} {
		for _, r := range rows {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, r.name), func(t *testing.T) {
				check(t, r, workers)
			})
		}
	}
	t.Run("par width 4/"+beforeBudget.name, func(t *testing.T) {
		defer par.SetWorkers(4)()
		for i := 0; i < 200 && !t.Failed(); i++ {
			check(t, beforeBudget, -1)
		}
	})
}
