package weakorder_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"weakorder"
	"weakorder/internal/campaign"
	"weakorder/internal/core"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// TestNewMachineAllModels instantiates every operational model through the
// facade and explores one step of each.
func TestNewMachineAllModels(t *testing.T) {
	p := weakorder.MustParseProgram(mpSync).Program
	models := []weakorder.HardwareModel{
		weakorder.ModelSC, weakorder.ModelWriteBuffer, weakorder.ModelNetwork,
		weakorder.ModelNonAtomic, weakorder.ModelWODef1, weakorder.ModelWODef2,
		weakorder.ModelWODef2DRF1,
	}
	for _, m := range models {
		mach := weakorder.NewMachine(m, p)
		if mach == nil {
			t.Fatalf("%s: nil machine", m)
		}
		ts := mach.Transitions(nil)
		if len(ts) == 0 {
			t.Fatalf("%s: no initial transitions", m)
		}
		if err := mach.Apply(ts[0]); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

// TestVerifyContractMatchesComposition checks VerifyContract's single SC
// pass against the composition it replaced, kept here as the oracle: the
// DRF0 verdict from an enumeration of every idealized execution, SCOutcomes
// and Outcomes, all at the facade's 64-operation trace bound. Every field of
// the ContractReport must match, for every HardwareModel on the litmus corpus
// and 64 campaign programs. A program whose enumeration exceeds oracleStates
// distinct states is skipped.
func TestVerifyContractMatchesComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates the idealized executions of 80 programs")
	}
	const oracleStates = 400_000
	progs := make([]*program.Program, 0, 80)
	for _, lt := range litmus.Corpus() {
		progs = append(progs, lt.Prog)
	}
	for i := 0; i < 64; i++ {
		_, p := campaign.ProgramFor(1, i)
		progs = append(progs, p)
	}
	models := []weakorder.HardwareModel{
		weakorder.ModelSC, weakorder.ModelWriteBuffer, weakorder.ModelNetwork,
		weakorder.ModelNonAtomic, weakorder.ModelWODef1, weakorder.ModelWODef2,
		weakorder.ModelWODef2DRF1,
	}
	var skipped atomic.Int32
	t.Run("programs", func(t *testing.T) {
		for _, p := range progs {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				enum := &model.Enumerator{Prog: p, Explorer: &model.Explorer{MaxTraceOps: 64, MaxStates: oracleStates}}
				drf, err := core.CheckProgram(enum, core.DRF0{}, 0)
				if errors.Is(err, model.ErrStateBudget) {
					skipped.Add(1)
					t.Skipf("enumeration exceeds %d states", oracleStates)
				}
				if err != nil {
					t.Fatal(err)
				}
				sc, err := weakorder.SCOutcomes(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range models {
					hw, err := weakorder.Outcomes(m, p)
					if err != nil {
						t.Fatalf("%s: %v", m, err)
					}
					want := core.CheckContract(p.Name, string(m), drf.Obeys(), sc, hw)
					got, err := weakorder.VerifyContract(m, p)
					if err != nil {
						t.Fatalf("%s: %v", m, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: VerifyContract = %+v, the composition gives %+v", m, got, want)
					}
				}
			})
		}
	})
	if n := skipped.Load(); n > 1 {
		t.Errorf("%d of %d programs exceed %d states in enumeration, want at most 1", n, len(progs), oracleStates)
	}
}

func TestNewMachineUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown model")
		}
	}()
	weakorder.NewMachine("no-such-model", weakorder.MustParseProgram(mpSync).Program)
}

// TestUnknownModelIsAnError checks that Outcomes and VerifyContract report an
// unknown hardware model as an error, and that VerifyContract does so before
// exploring: its program spins in a local loop, which any exploration reports
// as a different error.
func TestUnknownModelIsAnError(t *testing.T) {
	runaway := weakorder.MustParseProgram(`
name: runaway
thread:
loop:
    jmp loop
`).Program
	if _, err := weakorder.Outcomes("no-such-model", runaway); err == nil || !strings.Contains(err.Error(), "unknown hardware model") {
		t.Errorf("Outcomes: error %v, want an unknown hardware model", err)
	}
	if _, err := weakorder.VerifyContract("no-such-model", runaway); err == nil || !strings.Contains(err.Error(), "unknown hardware model") {
		t.Errorf("VerifyContract: error %v, want an unknown hardware model", err)
	}
	if _, err := weakorder.VerifyContract(weakorder.ModelSC, runaway); err == nil || strings.Contains(err.Error(), "unknown hardware model") {
		t.Errorf("VerifyContract on a known model: error %v, want the exploration's", err)
	}
}

func TestCheckModelCustomBound(t *testing.T) {
	p := weakorder.MustParseProgram(mpSync).Program
	rep, err := weakorder.CheckModel(p, weakorder.DRF1(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Obeys() {
		t.Errorf("mp-sync should obey DRF1 too: %s", rep)
	}
}

func TestFacadeConditionsCheck(t *testing.T) {
	p := weakorder.MustParseProgram(mpSync).Program
	cfg := weakorder.NewSimConfig(weakorder.PolicyWODef2)
	cfg.RecordTimings = true
	res, err := weakorder.Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := weakorder.CheckConditions(res); !rep.OK() {
		t.Errorf("conditions: %s", rep)
	}
	cfg = weakorder.NewSimConfig(weakorder.PolicyWODef2DRF1)
	cfg.RecordTimings = true
	res, err = weakorder.Simulate(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep := weakorder.CheckConditionsRefined(res); !rep.OK() {
		t.Errorf("refined conditions: %s", rep)
	}
}

func TestFacadeLockDiscipline(t *testing.T) {
	locked := weakorder.MustParseProgram(`
name: locked
init: l=0 c=0
thread:
a0:
    tas r0, l, 1
    bne r0, 0, a0
    ld r1, c
    add r1, r1, 1
    st c, r1
    sync.st l, 0
thread:
a1:
    tas r0, l, 1
    bne r0, 0, a1
    st c, 9
    sync.st l, 0
`).Program
	cfg := weakorder.NewSimConfig(weakorder.PolicyWODef2)
	cfg.RecordTrace = true
	res, err := weakorder.Simulate(locked, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := weakorder.CheckLockDiscipline(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("lock discipline: %s", rep)
	}
}

func TestFacadePhaseDiscipline(t *testing.T) {
	// A deliberate intra-phase conflict through the facade types.
	e := &weakorder.Execution{}
	e.Append(weakorder.Access{Proc: 0, Op: weakorder.OpWrite, Addr: 10, Value: 1})
	e.Append(weakorder.Access{Proc: 1, Op: weakorder.OpRead, Addr: 10, Value: 1})
	rep, err := weakorder.CheckPhaseDiscipline(e, weakorder.PhaseBarrier{Counter: 100, Sense: 101})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("intra-phase conflict accepted")
	}
}

func TestFacadeReadKeyOf(t *testing.T) {
	p := weakorder.MustParseProgram(mpSync).Program
	out, err := weakorder.SCOutcomes(p)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1's final read of d (some op index >= 1) must be 1 in every
	// result; locate it via ReadKeyOf over plausible indices.
	for _, k := range out.Keys() {
		r := out.Result(k)
		found := false
		for idx := 1; idx < 64; idx++ {
			if v, ok := r.Reads[weakorder.ReadKeyOf(1, idx)]; ok && v == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("no read of 1 found in result %q", k)
		}
	}
}

func TestFacadeModelNamesMatchFactories(t *testing.T) {
	p := weakorder.MustParseProgram(mpSync).Program
	for _, m := range []weakorder.HardwareModel{
		weakorder.ModelSC, weakorder.ModelWODef2, weakorder.ModelNonAtomic,
	} {
		mach := weakorder.NewMachine(m, p)
		if !strings.EqualFold(mach.Name(), string(m)) {
			t.Errorf("model %q has machine name %q", m, mach.Name())
		}
	}
}

// TestSimulateRunawayLocalLoopIsAnError: a thread that loops in local
// instructions without reaching another memory operation exceeds the
// interpreter's local-step bound. The timed run must fail with an error that
// wraps the interpreter's, not panic in the caller.
func TestSimulateRunawayLocalLoopIsAnError(t *testing.T) {
	p := weakorder.MustParseProgram(`
name: runaway
thread:
    st x, 1
L:
    jmp L
`).Program
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Simulate panicked: %v", r)
		}
	}()
	res, err := weakorder.Simulate(p, weakorder.NewSimConfig(weakorder.PolicyWODef2))
	if err == nil {
		t.Fatalf("Simulate = %+v, want the runaway-loop error", res)
	}
	leaf := err
	for next := errors.Unwrap(leaf); next != nil; next = errors.Unwrap(leaf) {
		leaf = next
	}
	if leaf == err || !strings.HasPrefix(leaf.Error(), "program: thread exceeded") {
		t.Fatalf("Simulate error %q does not wrap the interpreter's local-step error (innermost: %q)", err, leaf)
	}
}
