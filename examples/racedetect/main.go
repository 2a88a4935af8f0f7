// Racedetect demonstrates the Definition-3 tooling: the per-execution race
// check on the paper's Figure-2 executions, and whole-program checking under
// both DRF0 and the Section-6 refined model.
package main

import (
	"fmt"
	"log"

	"weakorder"
	"weakorder/internal/litmus"
)

const racy = `
name: racy-mp
init: data=0 flag=0
thread:
    st data, 1
    st flag, 1       # plain data write: invisible to the hardware
thread:
wait:
    ld r0, flag      # plain data spin
    beq r0, 0, wait
    ld r1, data
`

const clean = `
name: clean-mp
init: data=0 flag=0
thread:
    st data, 1
    sync.st flag, 1
thread:
wait:
    sync.ld r0, flag
    beq r0, 0, wait
    ld r1, data
`

func main() {
	// Figure 2's executions through the per-execution checker.
	for name, exec := range map[string]*weakorder.Execution{
		"figure-2a": litmus.Figure2a(),
		"figure-2b": litmus.Figure2b(),
	} {
		rep, err := weakorder.ExecutionRaces(exec, weakorder.DRF0())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", name, rep)
	}
	fmt.Println()

	// Whole-program checking (Definition 3 quantifies over all idealized
	// executions).
	for _, src := range []string{racy, clean} {
		p := weakorder.MustParseProgram(src).Program
		rep, err := weakorder.CheckDRF0(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(rep)
		if !rep.Obeys() && len(rep.Violations) > 0 {
			fmt.Printf("  first racy execution: %s\n", rep.Violations[0])
		}
	}
	fmt.Println()

	// The refined model demotes read-only synchronization from releasing.
	// Per execution the two models genuinely differ: in the execution below
	// the Test happens to complete before the TestAndSet, so DRF0 counts it
	// as ordering P0's write — DRF1 does not.
	exec := &weakorder.Execution{}
	exec.Append(weakorder.Access{Proc: 0, Op: weakorder.OpWrite, Addr: 0, Value: 1})
	exec.Append(weakorder.Access{Proc: 0, Op: weakorder.OpSyncRead, Addr: 1, Value: 0})
	exec.Append(weakorder.Access{Proc: 1, Op: weakorder.OpSyncRMW, Addr: 1, Value: 0, WValue: 1})
	exec.Append(weakorder.Access{Proc: 1, Op: weakorder.OpRead, Addr: 0, Value: 1})
	d0, err := weakorder.ExecutionRaces(exec, weakorder.DRF0())
	if err != nil {
		log.Fatal(err)
	}
	d1, err := weakorder.ExecutionRaces(exec, weakorder.DRF1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Test-then-TAS execution under DRF0: race-free=%v; under DRF1: race-free=%v\n",
		d0.Free(), d1.Free())
	fmt.Println()
	fmt.Println("note: at whole-program level the models usually coincide — forcing a")
	fmt.Println("sync op to complete first requires the later one to OBSERVE it, which")
	fmt.Println("already needs a writing release and a reading acquire (DRF1's edge).")
}
