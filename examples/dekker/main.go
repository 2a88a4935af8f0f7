// Dekker walks through Figure 1 of the paper: the store-buffering mutual
// exclusion fragment whose "both processors get in" outcome is impossible
// under sequential consistency yet reachable on every relaxed hardware
// configuration — unless the flag accesses are made synchronization
// operations the hardware can see.
package main

import (
	"fmt"
	"log"

	"weakorder"
)

const dekkerData = `
name: dekker-data
init: x=0 y=0
thread:
    st x, 1
    ld r0, y      # if 0, P0 believes it may enter
thread:
    st y, 1
    ld r1, x      # if 0, P1 believes it may enter
exists: 0:r0=0 && 1:r1=0
`

const dekkerSync = `
name: dekker-sync
init: x=0 y=0
thread:
    sync.st x, 1
    sync.ld r0, y
thread:
    sync.st y, 1
    sync.ld r1, x
exists: 0:r0=0 && 1:r1=0
`

// violation checks whether some outcome has both loads zero. Thread 0 loads
// into r0, thread 1 into r1; the Result records them by (proc, op index 1).
// An outcome set holds result keys, and Result decodes one.
func violation(out weakorder.OutcomeSet) bool {
	for _, k := range out.Keys() {
		r := out.Result(k)
		v0 := r.Reads[weakorder.ReadKeyOf(0, 1)]
		v1 := r.Reads[weakorder.ReadKeyOf(1, 1)]
		if v0 == 0 && v1 == 0 {
			return true
		}
	}
	return false
}

func main() {
	models := []weakorder.HardwareModel{
		weakorder.ModelSC,
		weakorder.ModelWriteBuffer,
		weakorder.ModelNetwork,
		weakorder.ModelNonAtomic,
		weakorder.ModelWODef1,
		weakorder.ModelWODef2,
	}
	for _, src := range []string{dekkerData, dekkerSync} {
		p := weakorder.MustParseProgram(src).Program
		fmt.Printf("%s:\n", p.Name)
		for _, m := range models {
			out, err := weakorder.Outcomes(m, p)
			if err != nil {
				log.Fatal(err)
			}
			verdict := "forbidden"
			if violation(out) {
				verdict = "ALLOWED (sequential consistency violated)"
			}
			fmt.Printf("  %-26s both-zero %s\n", m, verdict)
		}
		fmt.Println()
	}
	fmt.Println("the data version is racy: weak ordering promises it nothing.")
	fmt.Println("the sync version is DRF0: every weakly ordered machine forbids the violation.")
}
