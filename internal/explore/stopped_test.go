package explore_test

import (
	"strings"
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/model"
)

// TestRunAfterStoppedRun pins that an exploration starts clean whatever the
// explorations before it did. Explorations hand their storage on through
// pools (worker scratch, visited tables, dead machine states), and a run that
// stops early leaves it mid-search: a sleep set, a stack, states on free
// lists. Between full explorations of iriw-sync on WO-def2, every other
// corpus program is explored on every machine in each way that stops early:
// a callback returning false at the first final state, a budget of 5, 17 or
// 50 states, and a CheckSC pass that prunes everything after its first race.
// Serially, every full run must repeat the first one's Stats and outcome
// keys; at width 2 its outcome keys, and its Stats too with the reduction
// off, where they do not depend on the schedule.
func TestRunAfterStoppedRun(t *testing.T) {
	target, ok := litmus.ByName("iriw-sync")
	if !ok {
		t.Fatal("iriw-sync is not in the litmus corpus")
	}
	var wo litmus.Factory
	for _, f := range litmus.Factories() {
		if f.Name == "WO-def2" {
			wo = f
		}
	}
	if wo.New == nil {
		t.Fatal("no WO-def2 factory")
	}
	for _, workers := range []int{0, 2} {
		for _, fullExpl := range []bool{false, true} {
			x := &model.Explorer{Mode: model.KeyResult, MaxTraceOps: 40, FullExploration: fullExpl, Workers: workers}
			full := func() (string, model.Stats) {
				t.Helper()
				out, st, err := x.Outcomes(wo.New(target.Prog))
				if err != nil {
					t.Fatalf("workers=%d full=%v: %v", workers, fullExpl, err)
				}
				return strings.Join(out.Keys(), "\n"), st
			}
			wantKeys, wantStats := full()
			check := func(after string) {
				t.Helper()
				keys, st := full()
				if keys != wantKeys {
					t.Fatalf("workers=%d full=%v: after %s, the outcomes of %s on %s differ from the first run's:\n%s\nwant\n%s",
						workers, fullExpl, after, target.Name, wo.Name, keys, wantKeys)
				}
				if (workers <= 1 || fullExpl) && st != wantStats {
					t.Fatalf("workers=%d full=%v: after %s, %s on %s explored %v, the first run %v",
						workers, fullExpl, after, target.Name, wo.Name, st, wantStats)
				}
			}
			for _, lt := range litmus.Corpus() {
				if lt.Name == target.Name {
					continue
				}
				for _, f := range allFactories() {
					stop := *x
					_, _ = stop.Visit(f.New(lt.Prog), func(model.Machine) bool { return false })
					check(lt.Name + " on " + f.Name + " stopped by its callback")
					for _, budget := range []int{5, 17, 50} {
						stop.MaxStates = budget
						_, _ = stop.Visit(f.New(lt.Prog), func(model.Machine) bool { return true })
						check(lt.Name + " on " + f.Name + " stopped by its budget")
					}
				}
				if _, err := x.CheckSC(lt.Prog, true); err != nil {
					t.Fatalf("SC pass of %s: %v", lt.Name, err)
				}
				check("the SC pass of " + lt.Name)
			}
		}
	}
}
