package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"weakorder/internal/campaign"
	"weakorder/internal/core"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// shadowVerdict recomputes a differential verdict by calling, in order, the
// public functions fuzz.Checker.Check composes, with a span (a child of vs)
// around each: core.CheckProgram over a model.Enumerator for DRF0,
// Explorer.Outcomes on the SC reference, Explorer.Outcomes on each machine,
// and, when minimize is set, fuzz.Minimize for each violation. A state-budget
// error in any phase makes the verdict a skip, as campaign.FuzzVerdict does.
// Reproducers hold fuzz.EmitLitmus of each minimized program, without the
// header comments the campaign adds.
func shadowVerdict(vs *span, p *program.Program, machines []litmus.Factory, xt model.Explorer, minimize bool) (campaign.Verdict, error) {
	x := xt
	var v campaign.Verdict
	skip := func(err error) (campaign.Verdict, error) {
		if errors.Is(err, model.ErrStateBudget) {
			vs.set("budget_exhausted", 1)
			return campaign.Verdict{Skipped: true}, nil
		}
		return campaign.Verdict{}, err
	}

	s := vs.child("core.drf0")
	drf, err := core.CheckProgram(&model.Enumerator{Prog: p, Explorer: &x}, core.DRF0{}, 1)
	if err != nil {
		s.finish()
		return skip(err)
	}
	s.set("executions", float64(drf.Executions))
	s.finish()
	v.DRF0 = drf.Obeys()

	s = vs.child("model.sc")
	scOut, st, err := x.Outcomes(model.NewSC(p))
	s.set("states", float64(st.States))
	s.finish()
	if err != nil {
		return skip(err)
	}
	v.SCOutcomes = len(scOut)
	v.States = int64(st.States)

	for _, f := range machines {
		s = vs.child("model.machine")
		hwOut, st, err := x.Outcomes(f.New(p))
		s.set("states", float64(st.States))
		s.finish()
		if err != nil {
			return skip(err)
		}
		v.States += int64(st.States)
		if len(core.CheckContract(p.Name, f.Name, v.DRF0, scOut, hwOut).Extra) > 0 {
			if v.DRF0 {
				v.Violating = append(v.Violating, f.Name)
			} else {
				v.RacyNonSC = true
			}
		}
	}

	if minimize && len(v.Violating) > 0 {
		v.Reproducers = make(map[string]string, len(v.Violating))
		for _, name := range v.Violating {
			f, _ := litmus.FactoryByName(name) // names come from machines
			s = vs.child("fuzz.minimize")
			min := fuzz.Minimize(p, f, &x)
			s.set("size_ratio", float64(opCount(min))/float64(opCount(p)))
			s.finish()
			v.Reproducers[name] = fuzz.EmitLitmus(min)
		}
	}
	return v, nil
}

// opCount is a program's total instruction count.
func opCount(p *program.Program) int {
	n := 0
	for _, code := range p.Threads {
		n += len(code)
	}
	return n
}

// sameVerdict reports how a composed verdict differs from the one the
// system returned, comparing everything a verdict decides. States is a cost
// counter that parallel exploration may vary, so it is not compared. A
// reproducer matches when the system's text ends with the composed one.
func sameVerdict(got, want campaign.Verdict) error {
	if got.Skipped != want.Skipped || got.DRF0 != want.DRF0 || got.SCOutcomes != want.SCOutcomes ||
		got.RacyNonSC != want.RacyNonSC || !slices.Equal(got.Violating, want.Violating) {
		return fmt.Errorf("composed verdict {skipped %v drf0 %v sc %d racy-non-sc %v violating %v} != system's {skipped %v drf0 %v sc %d racy-non-sc %v violating %v}",
			got.Skipped, got.DRF0, got.SCOutcomes, got.RacyNonSC, got.Violating,
			want.Skipped, want.DRF0, want.SCOutcomes, want.RacyNonSC, want.Violating)
	}
	for name, rep := range got.Reproducers {
		if !strings.HasSuffix(want.Reproducers[name], rep) {
			return fmt.Errorf("composed reproducer for %s differs from the system's", name)
		}
	}
	return nil
}
