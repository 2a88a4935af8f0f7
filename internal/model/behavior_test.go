package model_test

import (
	"errors"
	"reflect"
	"testing"

	"weakorder/internal/core"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// behaviorClasses groups machines by the behaviour identity of their machines
// over p, keeping factory order within and across the groups.
func behaviorClasses(machines []litmus.Factory, p *program.Program) [][]litmus.Factory {
	var classes [][]litmus.Factory
	index := make(map[model.Behavior]int)
	for _, f := range machines {
		id := f.New(p).Behavior()
		i, ok := index[id]
		if !ok {
			i = len(classes)
			index[id] = i
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], f)
	}
	return classes
}

// exploration is what TestBehaviorIdentityEquivalence compares of one
// exploration: its Stats, its outcome keys and whether it hit the budget.
type exploration struct {
	stats  model.Stats
	keys   []string
	budget bool
}

// TestBehaviorIdentityEquivalence is the equivalence half of the weakness
// preorder that lets a verdict explore each behaviour identity once: every
// two factories, standard and broken, whose machines share a model.Behavior
// explore alike — equal Stats, equal outcome keys and the same budget
// verdict — on every fingerprint program, at KeyState and KeyResult, with POR
// on and off. It also pins the classes the weakly ordered machines form.
func TestBehaviorIdentityEquivalence(t *testing.T) {
	var machines []litmus.Factory
	seen := make(map[string]bool)
	for _, f := range append(litmus.Factories(), litmus.BrokenFactories()...) {
		if !seen[f.Name] {
			seen[f.Name] = true
			machines = append(machines, f)
		}
	}
	wantWeak := [][]string{
		{"bus+writebuffer", "bus+cache+writebuffer", "tso"},
		{"network-nocache"},
		{"WO-def1", "RP3-fence"},
		{"WO-def2"},
		{"WO-def2-drf1"},
		{"pso"},
		{"rmo"},
	}
	pairs := 0
	for _, p := range fingerprintPrograms() {
		var weak [][]string
		for _, class := range behaviorClasses(litmus.WeaklyOrderedFactories(), p) {
			var names []string
			for _, f := range class {
				names = append(names, f.Name)
			}
			weak = append(weak, names)
		}
		if !reflect.DeepEqual(weak, wantWeak) {
			t.Fatalf("%s: the weakly ordered machines form the classes %q, want %q", p.Name, weak, wantWeak)
		}
		for _, class := range behaviorClasses(machines, p) {
			if len(class) < 2 {
				continue
			}
			for _, mode := range []model.KeyMode{model.KeyState, model.KeyResult} {
				for _, full := range []bool{false, true} {
					x := &model.Explorer{Mode: mode, FullExploration: full, MaxTraceOps: 40, MaxStates: fingerprintBudget}
					want := explore(t, x, class[0], p)
					for _, f := range class[1:] {
						if got := explore(t, x, f, p); !reflect.DeepEqual(got, want) {
							t.Errorf("%s mode=%d full=%v: %s explores %+v, %s %+v", p.Name, mode, full, f.Name, got, class[0].Name, want)
						}
						pairs++
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no two machines share a behaviour identity")
	}
}

// explore runs one serial exploration of f's machine over p.
func explore(t *testing.T, x *model.Explorer, f litmus.Factory, p *program.Program) exploration {
	t.Helper()
	out := make(core.OutcomeSet)
	st, err := x.Visit(f.New(p), func(m model.Machine) bool {
		out.Add(model.ResultOf(m))
		return true
	})
	if err != nil && !errors.Is(err, model.ErrStateBudget) {
		t.Fatalf("%s on %s: %v", p.Name, f.Name, err)
	}
	return exploration{stats: st, keys: out.Keys(), budget: err != nil}
}
