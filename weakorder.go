// Package weakorder is a library-scale reproduction of Adve & Hill's
// "Weak Ordering — A New Definition": the formal machinery of the DRF0
// synchronization model, operational models of sequentially consistent and
// relaxed hardware with an exhaustive explorer, the paper's Section-5
// reserve-bit implementation, and a timed cache-coherent simulator for the
// performance analysis.
//
// The package is a facade over the implementation packages:
//
//   - Programs are written with the Builder DSL or parsed from the
//     litmus-style text format (ParseProgram).
//   - CheckDRF0 / CheckDRF1 decide Definition 3 by enumerating all idealized
//     executions; ExecutionRaces checks a single recorded execution.
//   - Outcomes enumerates a hardware model's result set; SCOutcomes the
//     idealized reference; VerifyContract performs Definition 2's
//     containment check.
//   - IsSequentiallyConsistent decides whether one recorded execution (for
//     example a trace from the timed simulator) could have been produced by
//     sequentially consistent memory.
//   - Simulate runs a program on the timed cache-coherent machine under a
//     chosen ordering policy (SC, WO-Def1, WO-Def2, WO-Def2+DRF1).
//
// Quick start:
//
//	res := weakorder.MustParseProgram(src)
//	rep, _ := weakorder.CheckDRF0(res.Program)
//	if rep.Obeys() {
//	    // Definition 2: any weakly ordered hardware appears SC to it.
//	}
package weakorder

import (
	"fmt"

	"weakorder/internal/conditions"
	"weakorder/internal/core"
	"weakorder/internal/doall"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/lockset"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/proc"
	"weakorder/internal/program"
)

// Re-exported fundamental types.
type (
	// Addr is a memory location.
	Addr = mem.Addr
	// Value is a memory word.
	Value = mem.Value
	// ProcID names a processor.
	ProcID = mem.ProcID
	// Op classifies a memory operation (data read/write, sync read/write/RMW).
	Op = mem.Op
	// Access is one dynamic memory access.
	Access = mem.Access
	// Event is an access within a recorded execution.
	Event = mem.Event
	// Execution is a recorded execution.
	Execution = mem.Execution
	// Result is the paper's notion of an execution's result.
	Result = mem.Result

	// Program is a multithreaded register-machine program.
	Program = program.Program
	// Builder assembles programs.
	Builder = program.Builder
	// ParseResult is the output of the text-format parser.
	ParseResult = program.ParseResult
	// Cond is a litmus outcome predicate.
	Cond = program.Cond
	// FinalState is what conditions evaluate against.
	FinalState = program.FinalState

	// SyncModel is a synchronization model (DRF0, DRF1, ...).
	SyncModel = core.SyncModel
	// Race is an unordered conflicting access pair.
	Race = core.Race
	// ProgramReport is the Definition-3 verdict for a program.
	ProgramReport = core.ProgramReport
	// ExecutionReport is the per-execution race report.
	ExecutionReport = core.Report
	// ContractReport is the Definition-2 verdict for (program, hardware).
	ContractReport = core.ContractReport
	// OutcomeSet is a set of distinct Results.
	OutcomeSet = core.OutcomeSet
	// SCWitness is SCCheck's verdict for a recorded execution.
	SCWitness = core.SCWitness

	// Machine is an operational hardware model under exploration.
	Machine = model.Machine
	// Explorer exhaustively enumerates a machine's behaviors.
	Explorer = model.Explorer

	// SimConfig parameterizes the timed cache-coherent simulator.
	SimConfig = machine.Config
	// SimResult reports a timed run.
	SimResult = machine.Result
	// Policy is a timed processor's ordering discipline.
	Policy = proc.Policy
)

// Operation kinds.
const (
	OpRead      = mem.OpRead
	OpWrite     = mem.OpWrite
	OpSyncRead  = mem.OpSyncRead
	OpSyncWrite = mem.OpSyncWrite
	OpSyncRMW   = mem.OpSyncRMW
)

// Timed ordering policies.
const (
	PolicySC              = proc.PolicySC
	PolicyWODef1          = proc.PolicyWODef1
	PolicyWODef2          = proc.PolicyWODef2
	PolicyWODef2DRF1      = proc.PolicyWODef2DRF1
	PolicyWODef2NoReserve = proc.PolicyWODef2NoReserve
)

// ReadKeyOf locates a dynamic read in a Result by processor and program-order
// operation index.
func ReadKeyOf(p ProcID, index int) mem.ReadKey {
	return mem.ReadKey{Proc: p, Index: index}
}

// DRF0 is the paper's Data-Race-Free-0 synchronization model.
func DRF0() SyncModel { return core.DRF0{} }

// DRF1 is the Section-6 refinement distinguishing read-only synchronization.
func DRF1() SyncModel { return core.DRF1{} }

// NewBuilder starts a program.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// Imm returns an immediate instruction operand.
func Imm(v Value) program.Operand { return program.Imm(v) }

// R returns a register instruction operand.
func R(r program.Reg) program.Operand { return program.R(r) }

// ParseProgram parses the litmus-style text format.
func ParseProgram(src string) (*ParseResult, error) { return program.Parse(src) }

// MustParseProgram is ParseProgram that panics on error.
func MustParseProgram(src string) *ParseResult { return program.MustParse(src) }

// CheckDRF0 decides Definition 3 for the program under DRF0, enumerating all
// idealized executions. When the program can spin forever, each execution is
// bounded to 64 memory operations; CheckModel takes a different bound.
func CheckDRF0(p *Program) (*ProgramReport, error) { return checkModel(p, core.DRF0{}, 0) }

// CheckDRF1 decides Definition 3 under the refined model.
func CheckDRF1(p *Program) (*ProgramReport, error) { return checkModel(p, core.DRF1{}, 0) }

// CheckModel decides Definition 3 under an arbitrary synchronization model
// with an explicit per-execution operation bound.
func CheckModel(p *Program, m SyncModel, maxOps int) (*ProgramReport, error) {
	return checkModel(p, m, maxOps)
}

func checkModel(p *Program, m SyncModel, maxOps int) (*ProgramReport, error) {
	if maxOps <= 0 {
		maxOps = 64
	}
	enum := &model.Enumerator{Prog: p, Explorer: &model.Explorer{MaxTraceOps: maxOps}}
	return core.CheckProgram(enum, m, 0)
}

// ExecutionRaces checks one idealized execution against a synchronization
// model, returning its race report.
func ExecutionRaces(e *Execution, m SyncModel) (*ExecutionReport, error) {
	return core.CheckExecution(e, m)
}

// SCOutcomes enumerates the results of the program on the idealized
// (sequentially consistent) architecture.
func SCOutcomes(p *Program) (OutcomeSet, error) {
	out, _, err := newExplorer().Outcomes(model.NewSC(p))
	return out, err
}

// HardwareModel names an operational machine for Outcomes: any machine of
// the standard set or the deliberately broken fixtures, by its name in the
// litmus package's factory registry ("SC", "bus+writebuffer",
// "bus+cache+writebuffer", "network-nocache", "network+cache-nonatomic",
// "WO-def1", "WO-def2", "WO-def2-drf1", "WO-def2-noreserve", "RP3-fence",
// "tso", "pso", "rmo").
type HardwareModel string

// The operational hardware models, a selection of the accepted names.
const (
	ModelSC          HardwareModel = "SC"
	ModelWriteBuffer HardwareModel = "bus+writebuffer"
	ModelNetwork     HardwareModel = "network-nocache"
	ModelNonAtomic   HardwareModel = "network+cache-nonatomic"
	ModelWODef1      HardwareModel = "WO-def1"
	ModelWODef2      HardwareModel = "WO-def2"
	ModelWODef2DRF1  HardwareModel = "WO-def2-drf1"
)

// NewMachine instantiates an operational model for the program. It panics on
// an unknown model, which Outcomes and VerifyContract return as an error.
func NewMachine(m HardwareModel, p *Program) Machine {
	f, err := factory(m)
	if err != nil {
		panic(err)
	}
	return f.New(p)
}

// factory resolves a hardware model by name, reporting an unknown one.
func factory(m HardwareModel) (litmus.Factory, error) {
	f, ok := litmus.FactoryByName(string(m))
	if !ok {
		return f, fmt.Errorf("weakorder: unknown hardware model %q", string(m))
	}
	return f, nil
}

func newExplorer() *model.Explorer { return &model.Explorer{MaxTraceOps: 64} }

// Outcomes enumerates the results the hardware model can produce for the
// program.
func Outcomes(m HardwareModel, p *Program) (OutcomeSet, error) {
	f, err := factory(m)
	if err != nil {
		return nil, err
	}
	out, _, err := newExplorer().Outcomes(f.New(p))
	return out, err
}

// VerifyContract performs Definition 2's check for one program on one
// hardware model. It is fuzz.Checker.Check on that one machine with the
// facade's 64-op trace bound: one SC exploration decides DRF0 and collects
// the SC outcome set (model.Explorer.CheckSC), one more enumerates the
// hardware's, and the report says whether every hardware outcome is
// sequentially consistent. An unknown model is reported before anything is
// explored; an exploration error comes back as Check returns it.
func VerifyContract(m HardwareModel, p *Program) (*ContractReport, error) {
	f, err := factory(m)
	if err != nil {
		return nil, err
	}
	rep, err := (&fuzz.Checker{Explorer: newExplorer(), Machines: []litmus.Factory{f}}).Check(p)
	if err != nil {
		return nil, err
	}
	return rep.Machines[0], nil
}

// IsSequentiallyConsistent decides whether a recorded execution could have
// been produced by sequentially consistent memory, given the initial values.
func IsSequentiallyConsistent(e *Execution, init map[Addr]Value) (*SCWitness, error) {
	return core.SCCheck(e, init)
}

// NewSimConfig returns timed-simulator defaults for a policy.
func NewSimConfig(p Policy) SimConfig { return machine.NewConfig(p) }

// Simulate runs the program on the timed cache-coherent machine.
func Simulate(p *Program, cfg SimConfig) (*SimResult, error) { return machine.Run(p, cfg) }

// ConditionsReport is the verdict of checking a timed run's access lifecycle
// log against the Section-5.1 sufficient conditions.
type ConditionsReport = conditions.Report

// CheckConditions validates a timed run (made with SimConfig.RecordTimings)
// against the paper's Section-5.1 conditions for weak ordering w.r.t. DRF0.
func CheckConditions(r *SimResult) *ConditionsReport { return conditions.Check(r.Timings) }

// CheckConditionsRefined validates against the Section-6 refined conditions,
// the discipline PolicyWODef2DRF1 implements (read-only synchronization is
// unserialized and does not release).
func CheckConditionsRefined(r *SimResult) *ConditionsReport {
	return conditions.CheckRefined(r.Timings)
}

// LockDisciplineReport is the verdict of the Eraser-style monitor-discipline
// checker.
type LockDisciplineReport = lockset.Report

// CheckLockDiscipline verifies "sharing only through monitors" — the
// specialized synchronization model the paper's conclusion proposes — over a
// recorded execution: every shared data location must be consistently
// protected by at least one lock.
func CheckLockDiscipline(e *Execution) (*LockDisciplineReport, error) {
	return lockset.Check(e)
}

// PhaseBarrier designates the barrier locations for CheckPhaseDiscipline.
type PhaseBarrier = doall.Barrier

// PhaseDisciplineReport is the verdict of the do-all phase checker.
type PhaseDisciplineReport = doall.Report

// CheckPhaseDiscipline verifies "parallelism only from do-all loops" — the
// other specialized synchronization model from the paper's conclusion — over
// a recorded execution: no two threads may conflict on a data location within
// one barrier-delimited phase.
func CheckPhaseDiscipline(e *Execution, b PhaseBarrier) (*PhaseDisciplineReport, error) {
	return doall.Check(e, b)
}
