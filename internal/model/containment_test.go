package model

import (
	"testing"

	"weakorder/internal/core"
	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// outcomes explores a machine's Result set.
func outcomes(t *testing.T, m Machine) core.OutcomeSet {
	t.Helper()
	x := &Explorer{MaxTraceOps: 24}
	out, _, err := x.Outcomes(m)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return out
}

// subset asserts a ⊆ b.
func subset(t *testing.T, name string, a, b core.OutcomeSet) {
	t.Helper()
	for k := range a {
		if _, ok := b[k]; !ok {
			t.Errorf("%s: containment violated (result %q)", name, k)
			return
		}
	}
}

// randomPrograms yields a mixed bag of small programs for the laws.
func randomPrograms() []*program.Program {
	var ps []*program.Program
	for seed := int64(0); seed < 12; seed++ {
		ps = append(ps, workload.Random(seed, workload.RandomConfig{
			Procs: 2, DataVars: 2, SyncVars: 1, Ops: 4, SyncDensity: 30,
		}))
	}
	for seed := int64(20); seed < 26; seed++ {
		ps = append(ps, workload.RandomGuarded(seed, 2, 1))
	}
	return ps
}

// TestSCContainedInEveryRelaxedMachine: every machine can emulate the
// idealized architecture by scheduling transitions eagerly, so the SC result
// set is a subset of each machine's result set — the relaxations only *add*
// behaviors.
func TestSCContainedInEveryRelaxedMachine(t *testing.T) {
	mks := []func(*program.Program) Machine{
		func(p *program.Program) Machine { return NewWriteBuffer(p, "") },
		func(p *program.Program) Machine { return NewNetwork(p) },
		func(p *program.Program) Machine { return NewNonAtomic(p) },
		func(p *program.Program) Machine { return NewWODef1(p) },
		func(p *program.Program) Machine { return NewWODef2(p) },
		func(p *program.Program) Machine { return NewWODef2DRF1(p) },
	}
	for _, p := range randomPrograms() {
		sc := outcomes(t, NewSC(p))
		for _, mk := range mks {
			m := mk(p)
			subset(t, p.Name+" SC⊆"+m.Name(), sc, outcomes(t, m))
		}
	}
}

// TestDef1ContainedInDef2: Definition 1's extra stalls only remove behaviors
// relative to the Section-5 machine — under Definition 1 a synchronizer is
// drained at commit time, so it never leaves a reservation behind, making
// every Def1 path a legal Def2 path.
func TestDef1ContainedInDef2(t *testing.T) {
	for _, p := range randomPrograms() {
		d1 := outcomes(t, NewWODef1(p))
		d2 := outcomes(t, NewWODef2(p))
		subset(t, p.Name+" def1⊆def2", d1, d2)
	}
}

// TestDef2ContainedInNoReserve: removing the reservation constraint only
// enables more schedules.
func TestDef2ContainedInNoReserve(t *testing.T) {
	for _, p := range randomPrograms() {
		d2 := outcomes(t, NewWODef2(p))
		nr := outcomes(t, NewWODef2NoReserve(p))
		subset(t, p.Name+" def2⊆noreserve", d2, nr)
	}
}

// TestRelaxationLadderContainment: each rung of TSO -> PSO -> RMO keeps every
// reordering of the rung below and adds one, so TSO ⊆ PSO ⊆ RMO. The network
// machine sits beside PSO, below it: PSO can delay a read to the moment the
// network's queued read would reach memory, so network ⊆ PSO.
func TestRelaxationLadderContainment(t *testing.T) {
	for _, p := range randomPrograms() {
		tso := outcomes(t, NewTSO(p))
		pso := outcomes(t, NewPSO(p))
		subset(t, p.Name+" tso⊆pso", tso, pso)
		subset(t, p.Name+" pso⊆rmo", pso, outcomes(t, NewRMO(p)))
		subset(t, p.Name+" network⊆pso", outcomes(t, NewNetwork(p)), pso)
	}
}
