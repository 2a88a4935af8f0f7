package fuzz_test

import (
	"reflect"
	"runtime"
	"testing"

	"weakorder/internal/campaign"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// TestCheckFanOutMatchesSerial is the differential gate of Check's fan-out:
// with the service's auto width (Workers: -1) at par widths 1, 2 and
// GOMAXPROCS, Check must return a report deep-equal to the in-order
// Workers: 0 report, States included, over the litmus corpus and the first
// 32 programs of campaign seed 1. GOMAXPROCS is capped at one more than the
// verdict's explorations, one per behaviour identity among the default
// machines: up to there the fan-out claims every slot, so each exploration
// runs serially. A budget-exhausting program must fail with the same error at
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

	widths := []int{1, 2}
	if n := min(runtime.GOMAXPROCS(0), 2+explorations(litmus.WeaklyOrderedFactories(), progs[0])); n > 2 {
		widths = append(widths, n)
	}
	for _, w := range widths {
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

// explorations returns how many machine explorations a verdict over machines
// runs: one per behaviour identity.
func explorations(machines []litmus.Factory, p *program.Program) int {
	ids := make(map[model.Behavior]bool)
	for _, f := range machines {
		ids[f.New(p).Behavior()] = true
	}
	return len(ids)
}
