package core

import (
	"math/rand"
	"slices"
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
}

func (d decidingEnum) DecideDRF0() (*ProgramReport, error) {
	return &ProgramReport{Model: "DRF0", Executions: -1}, nil
}

// TestCheckProgramRoutesDRF0Decider pins when CheckProgram hands the verdict
// to a DRF0Decider: DRF0 with maxViolations == 1 only; everything else
// enumerates.
func TestCheckProgramRoutesDRF0Decider(t *testing.T) {
	racy := sliceEnum{racyPair()}
	cases := []struct {
		enum    ExecutionEnumerator
		m       SyncModel
		max     int
		decided bool
	}{
		{decidingEnum{racy}, DRF0{}, 1, true},
		{decidingEnum{racy}, DRF0{}, 0, false},
		{decidingEnum{racy}, DRF1{}, 1, false},
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

// edgeRuleCases are small executions, each with its race count under DRF0
// and under DRF1, that separate the two edge rules and pin how
// CheckExecution's clocks acquire and release. Together they hold, per model,
// the smallest racy execution and a race-free one that differs from it only
// by the synchronization the model credits.
var edgeRuleCases = []struct {
	name       string
	exec       *mem.Execution
	drf0, drf1 int
}{
	// DRF0's minimal pair: unsynchronized W‖R races; a sync pair on a flag
	// repairs it, and the Unset → TestAndSet handoff also suits DRF1.
	{"unsynchronized-write-read", racyPair(), 1, 1},
	{"unsynchronized-write-write", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpWrite, Addr: 0, Value: 2}), 1, 1},
	{"handoff", handoff(), 0, 0},
	// DRF1's minimal pair. A read-only Test cannot release (the idiom
	// Section 6 outlaws); an Unset released to a Test is race-free.
	{"test-does-not-release", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 0, Op: mem.OpSyncRead, Addr: 1, Value: 0},
		mem.Access{Proc: 1, Op: mem.OpSyncRMW, Addr: 1, Value: 0, WValue: 1},
		mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1}), 0, 1},
	{"unset-releases-to-test", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 0, Op: mem.OpSyncWrite, Addr: 1, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpSyncRead, Addr: 1, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1}), 0, 0},
	// A write-only Unset observes nothing, so under DRF1 it must not
	// inherit the release clock that the earlier Unset left.
	{"unset-does-not-acquire", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 0, Op: mem.OpSyncWrite, Addr: 1, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpSyncWrite, Addr: 1, Value: 2},
		mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1}), 0, 1},
	// A TestAndSet both acquires and releases, so W ≤po TAS0 → TAS1 → TAS2
	// ≤po R orders P0's write before both later reads under either model.
	{"rmw-orders-both-ways", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 0, Op: mem.OpSyncRMW, Addr: 1, Value: 0, WValue: 1},
		mem.Access{Proc: 1, Op: mem.OpSyncRMW, Addr: 1, Value: 1, WValue: 2},
		mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1},
		mem.Access{Proc: 2, Op: mem.OpSyncRMW, Addr: 1, Value: 2, WValue: 3},
		mem.Access{Proc: 2, Op: mem.OpRead, Addr: 0, Value: 1}), 0, 0},
	// A bystander's read-only Test between the Unset and the acquiring Test
	// neither erases nor launders the release clock.
	{"release-survives-bystander-test", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 0, Op: mem.OpSyncWrite, Addr: 1, Value: 1},
		mem.Access{Proc: 2, Op: mem.OpSyncRead, Addr: 1, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpSyncRead, Addr: 1, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 1}), 0, 0},
	// Only sync/sync pairs are exempt: a data write and a sync read of one
	// location race under every model.
	{"sync-read-data-write", exec(
		mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1},
		mem.Access{Proc: 1, Op: mem.OpSyncRead, Addr: 0, Value: 1}), 1, 1},
	// A TestAndSet both reads and writes; a later data write races with it
	// once, not once per component.
	{"rmw-then-data-write", exec(
		mem.Access{Proc: 0, Op: mem.OpSyncRMW, Addr: 0, Value: 0, WValue: 1},
		mem.Access{Proc: 1, Op: mem.OpWrite, Addr: 0, Value: 5}), 1, 1},
}

func TestCheckExecutionEdgeRules(t *testing.T) {
	for _, tc := range edgeRuleCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range []struct {
				m     SyncModel
				races int
			}{{DRF0{}, tc.drf0}, {DRF1{}, tc.drf1}} {
				rep, err := CheckExecution(tc.exec, c.m)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Races) != c.races {
					t.Errorf("%s: %d races, want %d: %s", c.m.Name(), len(rep.Races), c.races, rep)
				}
			}
		})
	}
}

// edgeRuleExec returns the execution of the edgeRuleCases entry named name.
func edgeRuleExec(t *testing.T, name string) *mem.Execution {
	t.Helper()
	for _, tc := range edgeRuleCases {
		if tc.name == name {
			return tc.exec
		}
	}
	t.Fatalf("no edge-rule case %q", name)
	return nil
}

// TestCheckExecutionMinimalRacyVsDRFPair pins, per model, the smallest racy
// execution and its race-free sibling: the race count under the model, and
// that with no synchronization edges each of the four has its one W/R race,
// so the synchronization the model credits is all that tells them apart.
func TestCheckExecutionMinimalRacyVsDRFPair(t *testing.T) {
	cases := []struct {
		name  string
		model SyncModel
		exec  string
		races int
	}{
		{"DRF0 racy", DRF0{}, "unsynchronized-write-read", 1},
		{"DRF0 clean", DRF0{}, "handoff", 0},
		{"DRF1 racy", DRF1{}, "test-does-not-release", 1},
		{"DRF1 clean", DRF1{}, "unset-releases-to-test", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := edgeRuleExec(t, tc.exec)
			for _, c := range []struct {
				m     SyncModel
				races int
			}{{tc.model, tc.races}, {Unconstrained{}, 1}} {
				rep, err := CheckExecution(e, c.m)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Races) != c.races {
					t.Errorf("%s: %d races, want %d: %s", c.m.Name(), len(rep.Races), c.races, rep)
				}
			}
		})
	}
}

func TestCheckExecutionRejectsInvalidInput(t *testing.T) {
	noOrder := handoff()
	noOrder.Completed = nil
	badProc := racyPair()
	badProc.NumProcs = 1
	for _, tc := range []struct {
		name string
		exec *mem.Execution
	}{
		{"no completion order", noOrder},
		{"processor out of range", badProc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CheckExecution(tc.exec, DRF0{}); err == nil {
				t.Error("no error")
			}
		})
	}
}

// TestCheckExecutionReadsCompletionOrder pins how an execution whose
// completion order runs a processor's events out of program order is read:
// in completion order. P0's write completes after its Unset, so the Test that
// acquires the Unset does not order the write before P1's read, although
// BuildOrders' hb, which follows program order, does.
func TestCheckExecutionReadsCompletionOrder(t *testing.T) {
	e := mem.NewExecution(2)
	e.AppendAt(mem.Access{Proc: 0, Op: mem.OpSyncWrite, Addr: 1, Value: 1}, 1)
	e.AppendAt(mem.Access{Proc: 1, Op: mem.OpSyncRead, Addr: 1, Value: 1}, 0)
	read := e.AppendAt(mem.Access{Proc: 1, Op: mem.OpRead, Addr: 0, Value: 0}, 1)
	write := e.AppendAt(mem.Access{Proc: 0, Op: mem.OpWrite, Addr: 0, Value: 1}, 0)
	rep, err := CheckExecution(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 1 || rep.Races[0].A.ID != read || rep.Races[0].B.ID != write {
		t.Fatalf("want the one race R(x) <-> W(x), got %s", rep)
	}
	ord, err := BuildOrders(e, DRF0{})
	if err != nil {
		t.Fatal(err)
	}
	if !ord.HappensBefore(write, read) {
		t.Fatal("BuildOrders' hb should order the write before the read through program order")
	}
}

// hbRaces is the race list by definition: every conflicting pair, not both
// synchronization, that BuildOrders' hb leaves unordered, in ID order.
func hbRaces(t *testing.T, e *mem.Execution, m SyncModel) []Race {
	t.Helper()
	ord, err := BuildOrders(e, m)
	if err != nil {
		t.Fatal(err)
	}
	var races []Race
	for i, a := range e.Events {
		for _, b := range e.Events[i+1:] {
			if a.ConflictsWith(b.Access) && !(a.Op.IsSync() && b.Op.IsSync()) && !ord.Ordered(a.ID, b.ID) {
				races = append(races, Race{A: a, B: b})
			}
		}
	}
	return races
}

// randomExec builds a random idealized execution of atomic accesses against
// one memory, so read values are consistent. Data accesses also land on the
// synchronization locations.
func randomExec(rng *rand.Rand) *mem.Execution {
	nproc := 2 + rng.Intn(3)
	naddr := 2 + rng.Intn(3)
	nsync := 1 + rng.Intn(2)
	memory := map[mem.Addr]mem.Value{}
	e := mem.NewExecution(nproc)
	for k, nops := 0, 4+rng.Intn(14); k < nops; k++ {
		p := mem.ProcID(rng.Intn(nproc))
		a := mem.Addr(rng.Intn(naddr))
		if rng.Intn(100) < 45 {
			a = mem.Addr(100 + rng.Intn(nsync))
		}
		v := mem.Value(rng.Intn(4))
		var acc mem.Access
		switch op := mem.Op(rng.Intn(5)); op {
		case mem.OpRead, mem.OpSyncRead:
			acc = mem.Access{Proc: p, Op: op, Addr: a, Value: memory[a]}
		case mem.OpWrite, mem.OpSyncWrite:
			acc = mem.Access{Proc: p, Op: op, Addr: a, Value: v}
			memory[a] = v
		default:
			acc = mem.Access{Proc: p, Op: op, Addr: a, Value: memory[a], WValue: memory[a] + 1}
			memory[a]++
		}
		e.Append(acc)
	}
	return e
}

// TestCheckExecutionMatchesHB is the differential gate of the vector-clock
// decider: on the edge-rule cases and 2 000 random executions, under DRF0,
// DRF1 and Unconstrained, it lists exactly hbRaces' races, in the same order
// and with the same multiplicity.
func TestCheckExecutionMatchesHB(t *testing.T) {
	var execs []*mem.Execution
	for _, tc := range edgeRuleCases {
		execs = append(execs, tc.exec)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		execs = append(execs, randomExec(rng))
	}
	for i, e := range execs {
		for _, m := range []SyncModel{DRF0{}, DRF1{}, Unconstrained{}} {
			rep, err := CheckExecution(e, m)
			if err != nil {
				t.Fatal(err)
			}
			if want := hbRaces(t, e, m); !slices.Equal(rep.Races, want) {
				t.Fatalf("execution %d under %s: CheckExecution lists %v, hb %v\n%s", i, m.Name(), rep.Races, want, e)
			}
		}
	}
}
