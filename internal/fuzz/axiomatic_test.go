package fuzz

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"weakorder/internal/axiomatic"
	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
	"weakorder/internal/workload"
)

// counterpartFactories returns every registered machine that has an axiomatic
// specification, SC included.
func counterpartFactories(t testing.TB) []litmus.Factory {
	t.Helper()
	var out []litmus.Factory
	for _, f := range litmus.Factories() {
		if _, ok := axiomatic.CounterpartFor(f.Name); ok {
			out = append(out, f)
		}
	}
	if len(out) < 7 {
		t.Fatalf("only %d machines have axiomatic counterparts; expected SC, tso (x3), pso, rmo, WO-def1 (x2), WO-def2", len(out))
	}
	return out
}

// equivalenceCorpus is the program set the operational/axiomatic equivalence
// is asserted over: every litmus-corpus program inside the axiomatic fragment
// plus seeds random loop-free programs (256 in the full sweep).
func equivalenceCorpus(seeds int64) []*program.Program {
	var progs []*program.Program
	for _, tt := range litmus.Corpus() {
		if axiomatic.Supports(tt.Prog) == nil {
			progs = append(progs, tt.Prog)
		}
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := workload.RandomConfig{
			// Small shapes: the axiomatic side enumerates candidate
			// executions exhaustively, so the sweep trades per-program size
			// for corpus breadth.
			Procs:       2 + int(seed%2),
			DataVars:    1 + int(seed%3),
			SyncVars:    1 + int(seed/3%2),
			Ops:         2 + int(seed%3),
			SyncDensity: 10 + int(seed*13%81),
			RMWPct:      1 + int(seed*7%80),
			SyncReadPct: 1 + int(seed*11%90),
			FetchAddPct: int(seed * 5 % 50),
			CondPct:     int(seed * 17 % 45),
		}
		p := workload.Random(seed, cfg)
		if axiomatic.Supports(p) != nil {
			continue // generator emits only forward branches; defensive
		}
		progs = append(progs, p)
	}
	return progs
}

func outcomeKeys(m map[string]bool) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "\n")
}

// TestAxiomaticOperationalEquivalence is the headline differential gate: for
// every machine with an axiomatic counterpart, the operational outcome set
// equals the axiomatically admitted set — byte-identical key sets in both
// directions — over the litmus corpus and a 256-seed random corpus, with the
// partial-order reduction on and off and at exploration widths 1 and
// GOMAXPROCS. The axiomatic side is computed once per (program, system);
// every explorer configuration must reproduce it exactly.
func TestAxiomaticOperationalEquivalence(t *testing.T) {
	machines := counterpartFactories(t)
	seeds := int64(256)
	if testing.Short() {
		seeds = 48
	}
	progs := equivalenceCorpus(seeds)
	widths := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		widths = append(widths, w)
	}
	checked, skipped := 0, 0
	for _, p := range progs {
		admitted := make(map[axiomatic.System]string) // canonical key set per system
		for _, sys := range axiomatic.Systems() {
			adm, err := axiomatic.Admitted(p, sys)
			if errors.Is(err, axiomatic.ErrTooLarge) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: axiomatic %s: %v", p.Name, sys, err)
			}
			set := make(map[string]bool, len(adm))
			for k := range adm {
				set[k] = true
			}
			admitted[sys] = outcomeKeys(set)
		}
		for _, f := range machines {
			sys, _ := axiomatic.CounterpartFor(f.Name)
			want, ok := admitted[sys]
			if !ok {
				skipped++
				continue
			}
			for _, full := range []bool{false, true} {
				for _, w := range widths {
					x := &model.Explorer{FullExploration: full, Workers: w, MaxStates: 400_000}
					out, _, err := x.Outcomes(f.New(p))
					if err != nil {
						t.Fatalf("%s on %s (full=%v width=%d): %v", p.Name, f.Name, full, w, err)
					}
					set := make(map[string]bool, len(out))
					for k := range out {
						set[k] = true
					}
					if got := outcomeKeys(set); got != want {
						t.Errorf("%s: %s (full=%v width=%d) disagrees with %s axioms\n--- operational ---\n%s\n--- axiomatic ---\n%s",
							p.Name, f.Name, full, w, sys, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("equivalence sweep checked nothing")
	}
	t.Logf("equivalence held over %d program/machine/explorer combinations (%d machine-programs skipped by budget)", checked, skipped)
}

// crossValidate explores p on every machine of machines that has an
// axiomatic counterpart (axiomatic.CounterpartFor) and compares its outcome
// set with the counterpart's admitted set, in both directions. A system whose
// admitted set lies outside the checker's fragment or budgets is skipped. It
// returns one line per disagreeing machine and the number of machines
// validated; an exploration error, such as a state budget, is returned as is.
func crossValidate(p *program.Program, machines []litmus.Factory, x *model.Explorer) (disagreements []string, validated int, err error) {
	admitted := make(map[axiomatic.System]map[string]mem.Result)
	for _, f := range machines {
		sys, ok := axiomatic.CounterpartFor(f.Name)
		if !ok {
			continue
		}
		adm, ok := admitted[sys]
		if !ok {
			adm, err = axiomatic.Admitted(p, sys)
			if errors.Is(err, axiomatic.ErrUnsupported) || errors.Is(err, axiomatic.ErrTooLarge) {
				continue
			}
			if err != nil {
				return nil, 0, fmt.Errorf("axiomatic %s on %s: %w", sys, p.Name, err)
			}
			admitted[sys] = adm
		}
		out, _, err := x.Outcomes(f.New(p))
		if err != nil {
			return nil, 0, fmt.Errorf("%s outcomes of %s: %w", f.Name, p.Name, err)
		}
		validated++
		var missing, extra []string
		for k := range out {
			if _, ok := adm[k]; !ok {
				missing = append(missing, k)
			}
		}
		for k := range adm {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		if len(missing) > 0 || len(extra) > 0 {
			sort.Strings(missing)
			sort.Strings(extra)
			disagreements = append(disagreements, fmt.Sprintf("%s: outcomes its %s axioms reject %q; admitted outcomes it never produces %q",
				f.Name, sys, missing, extra))
		}
	}
	return disagreements, validated, nil
}

// TestCheckerAxiomaticCrossValidation cross-validates every counterpart
// machine against its specification on a mixed slice of random programs,
// with the fuzzing explorer, and requires that some machine was actually
// validated.
func TestCheckerAxiomaticCrossValidation(t *testing.T) {
	machines := counterpartFactories(t)
	validated := 0
	for seed := int64(0); seed < 10; seed++ {
		p := workload.Random(seed, workload.RandomConfig{
			Procs: 2, Ops: 2 + int(seed%2), SyncDensity: 30 + int(seed*9%50), RMWPct: 30,
		})
		d, n, err := crossValidate(p, machines, DefaultExplorer())
		if err != nil {
			if errors.Is(err, model.ErrStateBudget) {
				continue
			}
			t.Fatal(err)
		}
		for _, line := range d {
			t.Errorf("seed %d: %s", seed, line)
		}
		validated += n
	}
	if validated == 0 {
		t.Fatal("no machine was ever cross-validated")
	}
	t.Logf("%d machine-programs cross-validated", validated)
}

// FuzzAxiomatic is the native fuzzing harness for the axiomatic checker: each
// input derives a small random program, and every machine with a counterpart
// must produce exactly the admitted outcome set. Run with
//
//	go test ./internal/fuzz -run='^$' -fuzz=FuzzAxiomatic -fuzztime=30s
func FuzzAxiomatic(f *testing.F) {
	f.Add(int64(3), byte(0), byte(0), byte(40), byte(25))
	f.Add(int64(11), byte(1), byte(1), byte(70), byte(60))
	f.Add(int64(99), byte(0), byte(2), byte(15), byte(85))
	f.Fuzz(func(t *testing.T, seed int64, procs, ops, syncDensity, rmwPct byte) {
		cfg := workload.RandomConfig{
			Procs:       2 + int(procs%2),
			DataVars:    1 + int(ops/3%2),
			SyncVars:    1,
			Ops:         2 + int(ops%3),
			SyncDensity: 10 + int(syncDensity)%81,
			RMWPct:      1 + int(rmwPct)%99,
			SyncReadPct: 1 + int(rmwPct/2)%99,
			CondPct:     int(syncDensity/2) % 45,
		}
		p := workload.Random(seed, cfg)
		if axiomatic.Supports(p) != nil {
			t.Skip("outside the axiomatic fragment")
		}
		d, _, err := crossValidate(p, counterpartFactories(t), &model.Explorer{MaxTraceOps: 40, MaxStates: 100_000})
		if err != nil {
			if errors.Is(err, model.ErrStateBudget) {
				t.Skip("state budget exhausted")
			}
			t.Fatal(err)
		}
		if len(d) > 0 {
			t.Fatalf("MACHINE/SPECIFICATION DISAGREEMENT (seed %d):\n%s\n%s", seed, strings.Join(d, "\n"), EmitGo(p))
		}
	})
}
