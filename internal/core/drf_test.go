package core

import (
	"strings"
	"testing"

	"weakorder/internal/mem"
)

func racyPair() *mem.Execution {
	e := mem.NewExecution(2)
	e.Append(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1})
	e.Append(mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1})
	return e
}

func TestCheckExecutionFindsRace(t *testing.T) {
	rep, err := CheckExecution(racyPair(), DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free() {
		t.Fatal("unsynchronized write/read must race")
	}
	if len(rep.Races) != 1 {
		t.Fatalf("races = %d, want 1", len(rep.Races))
	}
	r := rep.Races[0]
	if r.A.Addr != 0 || r.B.Addr != 0 {
		t.Errorf("race on wrong location: %s", r)
	}
	if !strings.Contains(rep.String(), "violates DRF0") {
		t.Errorf("report text: %s", rep)
	}
}

func TestCheckExecutionHandoffIsFree(t *testing.T) {
	rep, err := CheckExecution(handoff(), DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatalf("handoff should be race-free: %s", rep)
	}
	if !strings.Contains(rep.String(), "obeys DRF0") {
		t.Errorf("report text: %s", rep)
	}
}

func TestReadReadNoConflict(t *testing.T) {
	e := mem.NewExecution(2)
	e.Append(mem.Access{Proc: 0, Op: mem.OpRead, Addr: 0})
	e.Append(mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0})
	rep, err := CheckExecution(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatal("two reads never conflict")
	}
}

func TestDifferentLocationsNoConflict(t *testing.T) {
	e := mem.NewExecution(2)
	e.Append(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1})
	e.Append(mem.Access{Proc: 1, Op: mem.OpWrite, Addr: 1, Value: 1})
	rep, err := CheckExecution(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatal("writes to different locations never conflict")
	}
}

func TestSameProcessorNeverRaces(t *testing.T) {
	e := mem.NewExecution(1)
	e.Append(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1})
	e.Append(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 2})
	rep, err := CheckExecution(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatal("program order covers same-processor conflicts")
	}
}

func TestSyncSyncConflictExempt(t *testing.T) {
	// Two sync writes to the same location by different processors: under
	// DRF1 neither edge direction exists (the later one cannot acquire),
	// yet hardware arbitration means this is not a data race.
	e := mem.NewExecution(2)
	e.Append(mem.Access{Proc: 0, Op: mem.OpSyncWrite, Addr: 0, Value: 1})
	e.Append(mem.Access{Proc: 1, Op: mem.OpSyncWrite, Addr: 0, Value: 2})
	rep, err := CheckExecution(e, DRF1{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Free() {
		t.Fatalf("sync/sync conflicts are hardware-arbitrated, not races: %s", rep)
	}
}

func TestSyncDataConflictStillRaces(t *testing.T) {
	// A data write racing with a sync op on the same location is a race
	// (DRF0 programs must not mix data and sync accesses to one location
	// without ordering).
	e := mem.NewExecution(2)
	e.Append(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1})
	e.Append(mem.Access{Proc: 1, Op: mem.OpSyncWrite, Addr: 0, Value: 2})
	rep, err := CheckExecution(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free() {
		t.Fatal("data/sync conflict on one location must race")
	}
}

func TestUnconstrainedMakesEverythingRacy(t *testing.T) {
	rep, err := CheckExecution(handoff(), Unconstrained{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Free() {
		t.Fatal("without sync edges, W(x)/R(x) must race")
	}
}

// sliceEnum adapts a fixed set of executions to ExecutionEnumerator.
type sliceEnum []*mem.Execution

func (s sliceEnum) IdealizedExecutions(fn func(*mem.Execution) bool) error {
	for _, e := range s {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

func TestCheckProgramAggregates(t *testing.T) {
	rep, err := CheckProgram(sliceEnum{handoff(), racyPair(), racyPair()}, DRF0{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obeys() {
		t.Fatal("program with racy executions must not obey")
	}
	if rep.Executions != 3 || len(rep.Violations) != 2 {
		t.Fatalf("executions=%d violations=%d", rep.Executions, len(rep.Violations))
	}
}

func TestCheckProgramStopsAtMaxViolations(t *testing.T) {
	rep, err := CheckProgram(sliceEnum{racyPair(), racyPair(), racyPair()}, DRF0{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("violations=%d, want 1 (early stop)", len(rep.Violations))
	}
	if rep.Executions != 1 {
		t.Fatalf("executions=%d, want 1", rep.Executions)
	}
}

// decidingEnum is sliceEnum with a DRF0Decider whose reports are marked by
// Executions == -1, so a test can tell which path CheckProgram took.
type decidingEnum struct {
	sliceEnum
	decides bool
}

func (d decidingEnum) DecideDRF0() (*ProgramReport, bool, error) {
	if !d.decides {
		return nil, false, nil
	}
	return &ProgramReport{Model: "DRF0", Executions: -1}, true, nil
}

// TestCheckProgramRoutesDRF0Decider pins when CheckProgram hands the verdict
// to a DRF0Decider: DRF0 with maxViolations == 1 only, and only when the
// decider accepts; everything else enumerates.
func TestCheckProgramRoutesDRF0Decider(t *testing.T) {
	racy := sliceEnum{racyPair()}
	cases := []struct {
		enum    ExecutionEnumerator
		m       SyncModel
		max     int
		decided bool
	}{
		{decidingEnum{racy, true}, DRF0{}, 1, true},
		{decidingEnum{racy, true}, DRF0{}, 0, false},
		{decidingEnum{racy, true}, DRF1{}, 1, false},
		{decidingEnum{racy, false}, DRF0{}, 1, false},
	}
	for i, c := range cases {
		rep, err := CheckProgram(c.enum, c.m, c.max)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := rep.Executions == -1; got != c.decided {
			t.Errorf("case %d (%s, max %d): decided by the DRF0Decider = %v, want %v", i, c.m.Name(), c.max, got, c.decided)
		}
	}
}

func TestCheckProgramAllFree(t *testing.T) {
	rep, err := CheckProgram(sliceEnum{handoff(), handoff()}, DRF0{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Obeys() {
		t.Fatalf("all-free program reported as violating: %s", rep)
	}
	if !strings.Contains(rep.String(), "obeys") {
		t.Errorf("report text: %s", rep)
	}
}
