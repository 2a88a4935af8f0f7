package axiomatic

import (
	"errors"
	"sort"
	"testing"

	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// shapes returns the classic litmus shapes the per-model admitted sets are
// cross-checked on, shape by shape, against the operational machines.
func shapes() []*program.Program {
	var out []*program.Program
	add := func(name string, build func(b *program.Builder)) {
		b := program.NewBuilder(name)
		build(b)
		out = append(out, b.MustBuild())
	}
	add("sb", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Load(0, 1)
		b.Thread()
		b.Store(1, program.Imm(1))
		b.Load(1, 0)
	})
	add("mp-data", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Store(1, program.Imm(1))
		b.Thread()
		b.Load(0, 1)
		b.Load(1, 0)
	})
	add("mp-release", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.SyncStore(1, program.Imm(1))
		b.Thread()
		b.Load(0, 1)
		b.Load(1, 0)
	})
	add("mp-sync", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.SyncStore(1, program.Imm(1))
		b.Thread()
		b.SyncLoad(0, 1)
		b.Load(1, 0)
	})
	add("corr", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Store(0, program.Imm(2))
		b.Thread()
		b.Load(0, 0)
		b.Load(1, 0)
	})
	add("2+2w", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Store(1, program.Imm(2))
		b.Thread()
		b.Store(1, program.Imm(1))
		b.Store(0, program.Imm(2))
	})
	add("iriw", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Thread()
		b.Store(1, program.Imm(1))
		b.Thread()
		b.Load(0, 0)
		b.Load(1, 1)
		b.Thread()
		b.Load(0, 1)
		b.Load(1, 0)
	})
	add("wrc", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.Thread()
		b.Load(0, 0)
		b.Store(1, program.Imm(1))
		b.Thread()
		b.Load(0, 1)
		b.Load(1, 0)
	})
	add("tas-pair", func(b *program.Builder) {
		b.Thread()
		b.TestAndSet(0, 2, program.Imm(1))
		b.Store(0, program.Imm(1))
		b.Thread()
		b.TestAndSet(0, 2, program.Imm(1))
		b.Load(1, 0)
	})
	add("faa-race", func(b *program.Builder) {
		b.Thread()
		b.FetchAdd(0, 0, program.Imm(1))
		b.Thread()
		b.Store(0, program.Imm(5))
		b.Load(0, 0)
	})
	add("sync-handoff", func(b *program.Builder) {
		b.Thread()
		b.Store(0, program.Imm(1))
		b.SyncStore(1, program.Imm(1))
		b.Thread()
		b.SyncLoad(0, 1)
		b.SyncLoad(1, 1)
		b.Load(2, 0)
	})
	return out
}

func operational(sys System, p *program.Program) model.Machine {
	switch sys {
	case SysSC:
		return model.NewSC(p)
	case SysTSO:
		return model.NewTSO(p)
	case SysPSO:
		return model.NewPSO(p)
	case SysRMO:
		return model.NewRMO(p)
	case SysWODef1:
		return model.NewWODef1(p)
	case SysWODef2:
		return model.NewWODef2(p)
	}
	return nil
}

func sortedKeys(m map[string]mem.Result) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestAdmittedMatchesMachines is the shape-level differential check: on every
// classic litmus shape and every system, the axiomatic admitted set equals
// the operational machine's outcome set exactly.
func TestAdmittedMatchesMachines(t *testing.T) {
	for _, p := range shapes() {
		for _, sys := range Systems() {
			got, err := Admitted(p, sys)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, sys, err)
			}
			x := &model.Explorer{}
			want, _, err := x.Outcomes(operational(sys, p))
			if err != nil {
				t.Fatalf("%s/%s operational: %v", p.Name, sys, err)
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s/%s: machine outcome not admitted axiomatically:\n  %s",
						p.Name, sys, k)
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					t.Errorf("%s/%s: axiomatic outcome never produced by the machine:\n  %s",
						p.Name, sys, k)
				}
			}
			if t.Failed() {
				t.Logf("%s/%s: admitted %d, operational %d", p.Name, sys, len(got), len(want))
			}
		}
	}
}

// TestKnownOutcomeCounts pins a few canonical cardinalities so a future
// regression that breaks both sides symmetrically still trips something.
func TestKnownOutcomeCounts(t *testing.T) {
	sb := shapes()[0]
	cases := []struct {
		sys  System
		want int
	}{
		{SysSC, 3},  // both-zero forbidden
		{SysTSO, 4}, // store buffering admits both-zero
		{SysPSO, 4},
		{SysRMO, 4},
		{SysWODef1, 4}, // data accesses are unordered between syncs
		{SysWODef2, 4},
	}
	for _, c := range cases {
		got, err := Admitted(sb, c.sys)
		if err != nil {
			t.Fatalf("%s: %v", c.sys, err)
		}
		if len(got) != c.want {
			t.Errorf("%s on sb: %d outcomes, want %d: %v", c.sys, len(got), c.want, sortedKeys(got))
		}
	}
}

func TestSupportsRejections(t *testing.T) {
	loop := program.NewBuilder("loop")
	loop.Thread()
	loop.Label("spin")
	loop.TestAndSet(0, 0, program.Imm(1))
	loop.Bne(0, program.Imm(0), "spin")
	if err := Supports(loop.MustBuild()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("loop: got %v, want ErrUnsupported", err)
	}

	idx := &program.Program{Threads: []program.Code{{
		{Op: program.ILoad, Rd: 0, Addr: 0, AddrReg: 1, UseAddrReg: true},
	}}}
	if err := Supports(idx); !errors.Is(err, ErrUnsupported) {
		t.Errorf("indexed: got %v, want ErrUnsupported", err)
	}

	wide := program.NewBuilder("wide")
	wide.Thread()
	for i := 0; i < maxDataWritesPerT+1; i++ {
		wide.Store(0, program.Imm(mem.Value(i)))
	}
	if err := Supports(wide.MustBuild()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("9 stores: got %v, want ErrUnsupported", err)
	}

	fwd := program.NewBuilder("forward")
	fwd.Thread()
	fwd.Load(0, 0)
	fwd.Beq(0, program.Imm(0), "done")
	fwd.Store(1, program.Imm(1))
	fwd.Label("done")
	fwd.Halt()
	if err := Supports(fwd.MustBuild()); err != nil {
		t.Errorf("forward branch: unexpected %v", err)
	}
}
