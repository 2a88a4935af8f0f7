// Command racecheck decides whether a program (in the repository's litmus
// format) obeys a synchronization model — Definition 3 — and reports any data
// races found. Under drf0 one SC outcome search decides the program and
// certifies one racy execution; -model drf1 and -all enumerate its idealized
// executions instead. With -trace it
// instead checks a recorded execution (JSON, as written by wosim -dump-trace):
// races under the model (core.CheckExecution, reading the trace in its
// completion order), sequential consistency of the result, and — when the
// trace carries timing data — the Section-5.1 conditions.
//
// Usage:
//
//	racecheck [-model drf0|drf1] [-max-ops N] [-all] FILE
//	racecheck -trace [-model drf0|drf1] FILE.json
//
// -all enumerates every idealized execution and reports each racy one
// instead of stopping at the first.
package main

import (
	"flag"
	"fmt"
	"os"

	"weakorder/internal/conditions"
	"weakorder/internal/core"
	"weakorder/internal/lockset"
	"weakorder/internal/model"
	"weakorder/internal/program"
	"weakorder/internal/trace"
)

func main() {
	modelName := flag.String("model", "drf0", "synchronization model: drf0 or drf1")
	maxOps := flag.Int("max-ops", 48, "per-execution operation bound (spin loops make executions unbounded)")
	all := flag.Bool("all", false, "enumerate every idealized execution and collect each racy one")
	traceMode := flag.Bool("trace", false, "FILE is a recorded trace (JSON), not a program")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racecheck [-model drf0|drf1] [-max-ops N] [-all] FILE")
		fmt.Fprintln(os.Stderr, "       racecheck -trace [-model drf0|drf1] FILE.json")
		os.Exit(2)
	}
	var m core.SyncModel
	switch *modelName {
	case "drf0":
		m = core.DRF0{}
	case "drf1":
		m = core.DRF1{}
	default:
		fatal(fmt.Errorf("unknown model %q", *modelName))
	}
	if *traceMode {
		checkTrace(flag.Arg(0), m)
		return
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	res, err := program.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	enum := &model.Enumerator{
		Prog:     res.Program,
		Explorer: &model.Explorer{MaxTraceOps: *maxOps},
	}
	maxViol := 1
	if *all {
		maxViol = 0
	}
	rep, err := core.CheckProgram(enum, m, maxViol)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	for _, v := range rep.Violations {
		fmt.Println(v)
	}
	if !rep.Obeys() {
		os.Exit(1)
	}
}

// checkTrace runs the per-execution checks on a recorded trace file.
func checkTrace(path string, m core.SyncModel) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	exec, init, timings, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	bad := false
	// The trace's completion order may be a commit order from a relaxed
	// machine; races are still meaningful relative to it.
	rrep, err := core.CheckExecution(exec, m)
	if err != nil {
		fatal(err)
	}
	if rrep.Free() {
		fmt.Printf("races (%s): none over %d events\n", m.Name(), exec.Len())
	} else {
		bad = true
		fmt.Printf("races (%s): %d\n", m.Name(), len(rrep.Races))
		for _, r := range rrep.Races {
			fmt.Printf("  %s\n", r)
		}
	}
	w, err := core.SCCheck(exec, init)
	if err != nil {
		fatal(err)
	}
	if w.SC {
		fmt.Println("sequential consistency: the recorded result is SC")
	} else {
		bad = true
		fmt.Println("sequential consistency: VIOLATED (no legal total order exists)")
	}
	if len(timings) > 0 {
		rep := conditions.Check(timings)
		fmt.Println(rep)
		if !rep.OK() {
			bad = true
		}
	}
	// Monitor-style lock discipline (informational: flag-based DRF0 sharing
	// legitimately fails it).
	lrep, err := lockset.Check(exec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(lrep)
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "racecheck: %v\n", err)
	os.Exit(1)
}
