package fuzz_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"weakorder/internal/campaign"
	"weakorder/internal/core"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// drf0Case is one program of the differential sweep; annotated programs
// carry the DRF0 flag their corpus entry records.
type drf0Case struct {
	p         *program.Program
	annotated bool
	drf0      bool
}

// drf0Corpus is the litmus corpus, the 256-seed random corpus of the POR
// gate, and the campaign.ProgramFor streams the benchmark's fuzz-campaign
// (eight seven-seed campaigns at base seeds 0, 7, ..., 49) and check-mixed
// (24 programs at base seed 1) workloads check.
func drf0Corpus() []drf0Case {
	var cs []drf0Case
	for _, lt := range litmus.Corpus() {
		cs = append(cs, drf0Case{p: lt.Prog, annotated: true, drf0: lt.DRF0})
	}
	for i := 0; i < 256; i++ {
		_, cfg := campaign.ConfigFor(i)
		cs = append(cs, drf0Case{p: workload.Random(int64(i)+1, cfg)})
	}
	for k := 0; k < 8; k++ {
		for i := 0; i < 7; i++ {
			_, p := campaign.ProgramFor(int64(7*k), i)
			cs = append(cs, drf0Case{p: p})
		}
	}
	for i := 0; i < 24; i++ {
		_, p := campaign.ProgramFor(1, i)
		cs = append(cs, drf0Case{p: p})
	}
	return cs
}

// TestSinglePassDRF0MatchesEnumeration is the differential gate of the
// single-pass DRF0 decision: the verdict of the SC outcome search
// (model.Explorer.CheckSC, as fuzz.Checker.Check runs it, and
// core.CheckProgram's DRF0Decider route, as the shrinker's early stop runs
// it) must equal the enumeration oracle's — core.CheckProgram checking every
// idealized execution — with POR on and off, at widths 1 and GOMAXPROCS. The
// one allowed difference is a program the oracle skips on the state budget;
// it must then decide its corpus annotation. Every race a racy witness lists
// must be a conflicting pair that BuildOrders' hb leaves unordered.
func TestSinglePassDRF0MatchesEnumeration(t *testing.T) {
	corpus := drf0Corpus()
	widths := []int{1, runtime.GOMAXPROCS(0)}
	for _, fullExpl := range []bool{false, true} {
		t.Run(fmt.Sprintf("full=%v", fullExpl), func(t *testing.T) {
			_, err := par.Map(corpus, 0, func(_ int, c drf0Case) (struct{}, error) {
				return struct{}{}, checkDRF0Cell(c, fullExpl, widths)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func checkDRF0Cell(c drf0Case, fullExpl bool, widths []int) error {
	x := *fuzz.DefaultExplorer()
	x.FullExploration = fullExpl
	oracle, err := core.CheckProgram(&model.Enumerator{Prog: c.p, Explorer: &x}, core.DRF0{}, 0)
	skipped := errors.Is(err, model.ErrStateBudget)
	if err != nil && !skipped {
		return fmt.Errorf("%s: oracle: %w", c.p.Name, err)
	}
	var want bool
	switch {
	case !skipped:
		want = oracle.Obeys()
	case c.annotated:
		want = c.drf0
	default:
		return fmt.Errorf("%s: the oracle exhausted its budget and no annotation decides the program", c.p.Name)
	}
	for _, w := range widths {
		xw := x
		xw.Workers = w
		pass, err := xw.CheckSC(c.p, false)
		if err != nil {
			return fmt.Errorf("%s width %d: CheckSC: %w", c.p.Name, w, err)
		}
		routed, err := core.CheckProgram(&model.Enumerator{Prog: c.p, Explorer: &xw}, core.DRF0{}, 1)
		if err != nil {
			return fmt.Errorf("%s width %d: routed CheckProgram: %w", c.p.Name, w, err)
		}
		if got := pass.Race == nil; got != want || routed.Obeys() != want {
			return fmt.Errorf("%s width %d: single pass says DRF0=%v, routed %v, oracle (skipped %v) %v",
				c.p.Name, w, got, routed.Obeys(), skipped, want)
		}
		for _, rep := range append([]*core.Report{pass.Race}, routed.Violations...) {
			if rep == nil {
				continue
			}
			if rep.Free() {
				return fmt.Errorf("%s width %d: a racy verdict lists no race", c.p.Name, w)
			}
			ord, err := core.BuildOrders(rep.Exec, core.DRF0{})
			if err != nil {
				return fmt.Errorf("%s width %d: hb of the witness: %w", c.p.Name, w, err)
			}
			for _, r := range rep.Races {
				if !r.A.ConflictsWith(r.B.Access) || ord.Ordered(r.A.ID, r.B.ID) {
					return fmt.Errorf("%s width %d: the witness lists %s, which hb orders or which does not conflict", c.p.Name, w, r)
				}
			}
		}
	}
	return nil
}

// TestReportStatesCountsEveryExploration pins fuzz.Report.States to the whole
// cost of a verdict: the SC pass's states plus one exploration per behaviour
// identity among the machines, with no exploration left uncounted. The
// default machines include aliases, so on every program that sum must also
// fall strictly below the SC pass plus every machine: the deduplication is
// pinned, not merely allowed.
func TestReportStatesCountsEveryExploration(t *testing.T) {
	x := fuzz.DefaultExplorer()
	chk := &fuzz.Checker{Explorer: x}
	for i := 0; i < 12; i++ {
		_, p := campaign.ProgramFor(1, i)
		rep, err := chk.Check(p)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := x.CheckSC(p, false)
		if err != nil {
			t.Fatal(err)
		}
		want, every := int64(sc.Stats.States), int64(sc.Stats.States)
		explored := make(map[model.Behavior]bool)
		for _, f := range litmus.WeaklyOrderedFactories() {
			m := f.New(p)
			_, st, err := x.Outcomes(m)
			if err != nil {
				t.Fatal(err)
			}
			every += int64(st.States)
			if !explored[m.Behavior()] {
				explored[m.Behavior()] = true
				want += int64(st.States)
			}
		}
		if rep.States != want {
			t.Errorf("%s: Report.States = %d, want the SC pass plus one exploration per identity = %d", p.Name, rep.States, want)
		}
		if want >= every {
			t.Errorf("%s: one exploration per identity costs %d states, not below the %d of exploring every machine", p.Name, want, every)
		}
	}
}
