package fuzz_test

import (
	"reflect"
	"testing"

	"weakorder/internal/campaign"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// TestCheckFanOutMatchesSerial is the differential gate of Check's fan-out:
// with the service's auto width (Workers: -1) at par widths 1, 2 and 16,
// Check must return a report deep-equal to the in-order Workers: 0 report,
// States included, over the litmus corpus and the first 32 programs of
// campaign seed 1. A par width of 16 leaves slots over once the fan-out of
// the default machines has claimed its 8, which Check's explorations must
// not take. A budget-exhausting program must fail with the same error at
// every width, with exactly the budget as its partial States where the
// fan-out runs in order.
func TestCheckFanOutMatchesSerial(t *testing.T) {
	var progs []*program.Program
	for _, lt := range litmus.Corpus() {
		progs = append(progs, lt.Prog)
	}
	for i := 0; i < 32; i++ {
		_, p := campaign.ProgramFor(1, i)
		progs = append(progs, p)
	}
	serial := &fuzz.Checker{}
	want := make([]*fuzz.Report, len(progs))
	for i, p := range progs {
		rep, err := serial.Check(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want[i] = rep
	}
	auto := fuzz.DefaultExplorer()
	auto.Workers = -1
	fanned := &fuzz.Checker{Explorer: auto}

	const budget = 500
	wrc, ok := litmus.ByName("wrc-transitive-sync")
	if !ok {
		t.Fatal("wrc-transitive-sync is not in the litmus corpus")
	}
	tight := &model.Explorer{MaxTraceOps: 40, MaxStates: budget}
	_, wantErr := (&fuzz.Checker{Explorer: tight}).Check(wrc.Prog)
	if wantErr == nil {
		t.Fatalf("%s explored within %d states", wrc.Name, budget)
	}
	tightAuto := *tight
	tightAuto.Workers = -1

	for _, w := range []int{1, 2, 16} {
		restore := par.SetWorkers(w)
		for i, p := range progs {
			got, err := fanned.Check(p)
			if err != nil {
				t.Fatalf("width %d: %s: %v", w, p.Name, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("width %d: %s: fanned-out report differs from the in-order one:\n got %+v\nwant %+v", w, p.Name, got, want[i])
			}
		}
		rep, err := (&fuzz.Checker{Explorer: &tightAuto}).Check(wrc.Prog)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("width %d: %s under a %d-state budget: error %v, want %v", w, wrc.Name, budget, err, wantErr)
		}
		if rep == nil || rep.States < budget || w == 1 && rep.States != budget {
			t.Errorf("width %d: %s under a %d-state budget: partial report %+v", w, wrc.Name, budget, rep)
		}
		restore()
	}
}

// TestCheckAtSerialBudgetMatchesSerial pins a verdict whose state budget is
// exactly what the serial search visits: ProgramFor(1, 19) on tso at
// MaxStates 39 is decided in order, and 200 Checks at the service's auto
// width under a par width of 8 must each return that report. A parallel
// search may visit a 40th state first, and so skip the program.
func TestCheckAtSerialBudgetMatchesSerial(t *testing.T) {
	_, p := campaign.ProgramFor(1, 19)
	tso, ok := litmus.FactoryByName("tso")
	if !ok {
		t.Fatal("no tso machine")
	}
	machines := []litmus.Factory{tso}
	x := fuzz.DefaultExplorer()
	x.MaxStates = 39
	want, err := (&fuzz.Checker{Explorer: x, Machines: machines}).Check(p)
	if err != nil {
		t.Fatalf("serial check at %d states: %v", x.MaxStates, err)
	}
	defer par.SetWorkers(8)()
	auto := *x
	auto.Workers = -1
	for i := 0; i < 200; i++ {
		got, err := (&fuzz.Checker{Explorer: &auto, Machines: machines}).Check(p)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("check %d: report %+v, error %v; want %+v", i, got, err, want)
		}
	}
}
