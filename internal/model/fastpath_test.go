package model_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"weakorder/internal/campaign"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// computedBelowAbove has register-computed accesses that land below (5, 6)
// and above (19) the static universe {10, 11, 12}, racing with each other, so
// terminal memory tables hold overflow slots on both sides of their static
// ones.
func computedBelowAbove() *program.Program {
	b := program.NewBuilder("computed-below-above")
	b.Init(10, 1).Init(11, 0).Init(12, 0)
	b.Thread().
		Mov(1, program.Imm(-5)).Mov(2, program.Imm(9)).
		StoreIdx(10, 1, program.Imm(1)).
		StoreIdx(10, 2, program.Imm(2)).
		SyncStore(12, program.Imm(1)).
		Load(3, 10).
		Halt()
	b.Thread().
		Mov(1, program.Imm(-5)).Mov(2, program.Imm(9)).
		SyncLoad(0, 12).
		LoadIdx(3, 10, 1).
		StoreIdx(11, 1, program.Imm(3)).
		LoadIdx(4, 10, 2).
		Store(10, program.Imm(4)).
		Halt()
	return b.MustBuild()
}

// TestResultKeyRendering is the round trip of the outcome keys: at every
// terminal state of the litmus corpus, the first 64 programs of campaign seed
// 1 and a program with overflow locations below and above its static
// universe, on every machine with POR on and off, the key a machine renders
// from its own state must decode (mem.ParseResultKey) to the Result the
// oracle model.ResultOf assembles, and that Result's Key must be the
// rendered key again.
func TestResultKeyRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every machine on 81 programs")
	}
	progs := []*program.Program{computedBelowAbove()}
	for _, tc := range litmus.Corpus() {
		progs = append(progs, tc.Prog)
	}
	for i := 0; i < 64; i++ {
		_, p := campaign.ProgramFor(1, i)
		progs = append(progs, p)
	}
	below, above := false, false
	for _, p := range progs {
		for _, f := range allMachines() {
			for _, full := range []bool{false, true} {
				x := &model.Explorer{Mode: model.KeyResult, FullExploration: full, MaxTraceOps: 40, MaxStates: 20_000}
				var failure error
				_, err := x.Visit(f.New(p), func(m model.Machine) bool {
					r := model.ResultOf(m)
					rendered, ok := strings.CutPrefix(string(m.AppendResultKey([]byte("prefix"))), "prefix")
					decoded, err := mem.ParseResultKey(rendered)
					switch {
					case !ok:
						failure = fmt.Errorf("%s on %s (full=%v): AppendResultKey overwrote its buffer", p.Name, f.Name, full)
					case err != nil:
						failure = fmt.Errorf("%s on %s (full=%v): %v", p.Name, f.Name, full, err)
					case !decoded.Equal(r):
						failure = fmt.Errorf("%s on %s (full=%v): %q decodes to %v, the oracle's Result is %v", p.Name, f.Name, full, rendered, decoded, r)
					case r.Key() != rendered:
						failure = fmt.Errorf("%s on %s (full=%v): rendered %q, the oracle's Result renders %q", p.Name, f.Name, full, rendered, r.Key())
					}
					if failure != nil {
						return false
					}
					if p.Name == "computed-below-above" {
						_, below5 := r.Final[5]
						_, above19 := r.Final[19]
						below, above = below || below5, above || above19
					}
					return true
				})
				if failure != nil {
					t.Fatal(failure)
				}
				if err != nil && !errors.Is(err, model.ErrStateBudget) {
					t.Fatalf("%s on %s: %v", p.Name, f.Name, err)
				}
			}
		}
	}
	if !below || !above {
		t.Fatalf("no terminal memory held overflow slots below (%v) and above (%v) the static universe", below, above)
	}
}

// allMachines is every standard and broken machine, each once.
func allMachines() []litmus.Factory {
	var out []litmus.Factory
	seen := make(map[string]bool)
	for _, f := range append(litmus.Factories(), litmus.BrokenFactories()...) {
		if !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f)
		}
	}
	return out
}

// TestExplorationAllocsPerState pins what a visited state costs in heap
// objects: the serial outcome search of wrc-transitive-sync on each weakly
// ordered machine, and its SC pass, allocate at most 3 objects per distinct
// state. Recycled states, kernel-owned step buffers, the pooled visited table
// and outcome sets of result keys are what keep it there; a per-state copy,
// step list or Result would break it.
func TestExplorationAllocsPerState(t *testing.T) {
	const limit = 3
	lt, ok := litmus.ByName("wrc-transitive-sync")
	if !ok {
		t.Fatal("wrc-transitive-sync is not in the litmus corpus")
	}
	x := &model.Explorer{MaxTraceOps: 40, MaxStates: 400_000}
	check := func(name string, run func() (model.Stats, error)) {
		t.Helper()
		st, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(2, func() { _, _ = run() })
		if per := allocs / float64(st.States); per > limit {
			t.Errorf("%s: %.0f allocations over %d states, %.2f per state; want at most %d", name, allocs, st.States, per, limit)
		}
	}
	check("SC pass", func() (model.Stats, error) {
		pass, err := x.CheckSC(lt.Prog, false)
		if err != nil {
			return model.Stats{}, err
		}
		return pass.Stats, nil
	})
	for _, f := range litmus.WeaklyOrderedFactories() {
		check(f.Name, func() (model.Stats, error) {
			_, st, err := x.Outcomes(f.New(lt.Prog))
			return st, err
		})
	}
}
