// Command wosim runs a workload on the timed cache-coherent machine under a
// chosen ordering policy and prints cycle counts, stall breakdowns and
// coherence statistics.
//
// Usage:
//
//	wosim -workload prodcons|lock|barrier|fig3 [-policy sc|def1|def2|def2drf1]
//	      [-procs N] [-iters N] [-work N] [-spin sync|data|tas]
//	      [-spec FILE] [-record FILE] [-replay FILE]
//	      [-netlat N] [-jitter N] [-bus] [-seed S] [-check]
//	      [-dir-shards N] [-topology flat|dancehall|clusters]
//	      [-cluster-size N] [-remote-lat N]
//	      [-max-states N] [-explore-workers N]
//	      [-faults] [-fault-seed S] [-fault-rates drop=P,dup=P,delay=P,reorder=P,maxdelay=N]
//	      [-metrics] [-timeline FILE]
//
// All flag values are validated up front: an unknown enum value, a negative
// latency, an ill-formed -spec file, or an unreadable -replay trace exits
// with status 2 and a one-line message before any simulation work happens.
// The built-in barrier workload rejects -spin tas the same way: the
// test-and-set spin cannot express the sense-reversing barrier.
//
// -spec FILE runs an open-loop workload (internal/workload/spec, YAML or
// JSON) instead of -workload: operations arrive at simulated-time instants
// drawn from the spec's per-phase rates. -record FILE writes the exact
// arrival stream to a versioned binary trace; -replay FILE re-runs a
// recorded trace with no spec in hand, and combines with -record to
// re-record the replay (the two trace files are byte-identical — the CI
// smoke test relies on it). -spec and -replay are mutually exclusive, and
// -record without either is a usage error.
//
// -check additionally records the execution trace and verifies it is
// sequentially consistent (expected for the DRF0 workloads on every policy).
// The verification runs on the shared exploration kernel, with its
// partial-order reduction, and -max-states bounds its search.
// -explore-workers widens the search inside the kernel: 1 (the default) is
// the serial search, an explicit N runs N workers over a shared
// work-stealing frontier, and 0 auto-sizes to the spare cores; the verdict is
// identical at every width, though a satisfiable check may report a
// different (equally valid) witness order, and a search that needs about
// -max-states states may exhaust the budget at one width and not another. A
// check that exhausts the state budget exits with status 2 and a distinct
// message — now naming the number of states the budget admitted, so the next
// -max-states needs no -metrics rerun — separating "too big to decide" from
// "decided and not SC" (status 1).
//
// -faults runs the machine over the deterministic fault-injecting fabric
// (internal/faults) with the protocol's recovery machinery (retries, NACKs,
// lenient duplicate handling, directory watchdog) enabled; -fault-seed and
// -fault-rates pick the exact fault schedule, and the run prints an injection
// summary. The same seed and rates replay byte-identically.
//
// -metrics turns on cycle-level observability (internal/metrics) and prints
// the attribution tables: every processor cycle classified as compute,
// reserve-stall, counter-stall, fence-stall, retry-backoff or idle, plus
// fabric traffic per message class and reserve-bit/directory occupancy
// histograms. -timeline additionally writes the run as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto); it implies the recorder and
// the written file is schema-validated before wosim exits. Both views are
// deterministic: the same flags produce byte-identical output.
//
// -cpuprofile and -memprofile write pprof profiles for the run, for
// inspection with `go tool pprof`.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"weakorder/internal/conditions"
	"weakorder/internal/core"
	"weakorder/internal/explore"
	"weakorder/internal/faults"
	"weakorder/internal/interconnect"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/proc"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
	"weakorder/internal/trace"
	"weakorder/internal/workload"
	"weakorder/internal/workload/openloop"
	"weakorder/internal/workload/spec"
	"weakorder/internal/workload/tracefmt"
)

func main() {
	wl := flag.String("workload", "prodcons", "prodcons, lock, barrier, fig3")
	policy := flag.String("policy", "def2", "sc, def1, def2, def2drf1, def2noreserve")
	procs := flag.Int("procs", 4, "processors (lock/barrier)")
	iters := flag.Int("iters", 8, "items/acquires/phases")
	work := flag.Int("work", 20, "local work cycles")
	spin := flag.String("spin", "sync", "sync, data, tas")
	specFile := flag.String("spec", "", "run an open-loop workload spec (YAML or JSON) instead of -workload")
	recordFile := flag.String("record", "", "record the open-loop arrival stream to this trace file (requires -spec or -replay)")
	replayFile := flag.String("replay", "", "replay a recorded arrival trace instead of generating one")
	netlat := flag.Int("netlat", 10, "network latency")
	jitter := flag.Int("jitter", 0, "network jitter")
	bus := flag.Bool("bus", false, "use the serialized bus fabric")
	update := flag.Bool("update", false, "use the write-update protocol for data writes")
	seed := flag.Int64("seed", 1, "jitter seed")
	check := flag.Bool("check", false, "verify the trace is sequentially consistent")
	maxStates := flag.Int("max-states", 0, "state budget for the -check search (0 = kernel default)")
	exploreWorkers := flag.Int("explore-workers", 1, "worker count for the -check search (1 = serial, 0 = one per spare core)")
	conds := flag.Bool("conditions", false, "verify the run against the Section-5.1 conditions")
	dump := flag.String("dump-trace", "", "write the recorded trace (and timings) as JSON to this file")
	injectFaults := flag.Bool("faults", false, "inject deterministic fabric faults and enable the recovery machinery")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection seed (replays byte-identically)")
	faultRates := flag.String("fault-rates", "", "fault rates, e.g. drop=0.03,dup=0.04,delay=0.06,reorder=0.02,maxdelay=16 (empty = defaults)")
	dirShards := flag.Int("dir-shards", 1, "address-interleaved directory shards (1 = single home node)")
	topology := flag.String("topology", "flat", "network topology: flat, dancehall, or clusters")
	clusterSize := flag.Int("cluster-size", 8, "processors per cluster for -topology clusters")
	remoteLat := flag.Int("remote-lat", 0, "extra latency per topology crossing (0 = same as -netlat)")
	showMetrics := flag.Bool("metrics", false, "print cycle-attribution, traffic and occupancy tables")
	timeline := flag.String("timeline", "", "write a Chrome trace-event timeline (JSON) to this file; implies the metrics recorder")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	// Validate every flag before doing any work: a typo'd enum or a negative
	// latency is a usage error (exit 2), not something to discover mid-run.
	var pol proc.Policy
	switch *policy {
	case "sc":
		pol = proc.PolicySC
	case "def1":
		pol = proc.PolicyWODef1
	case "def2":
		pol = proc.PolicyWODef2
	case "def2drf1":
		pol = proc.PolicyWODef2DRF1
	case "def2noreserve":
		pol = proc.PolicyWODef2NoReserve
	default:
		usage(fmt.Errorf("unknown -policy %q (want sc, def1, def2, def2drf1, or def2noreserve)", *policy))
	}
	var sk workload.SpinKind
	switch *spin {
	case "sync":
		sk = workload.SpinSync
	case "data":
		sk = workload.SpinData
	case "tas":
		sk = workload.SpinTAS
	default:
		usage(fmt.Errorf("unknown -spin %q (want sync, data, or tas)", *spin))
	}
	switch *wl {
	case "prodcons", "lock", "barrier", "fig3":
	default:
		usage(fmt.Errorf("unknown -workload %q (want prodcons, lock, barrier, or fig3)", *wl))
	}
	if *specFile != "" && *replayFile != "" {
		usage(fmt.Errorf("-spec and -replay are mutually exclusive (a replay needs no spec)"))
	}
	if *recordFile != "" && *specFile == "" && *replayFile == "" {
		usage(fmt.Errorf("-record requires -spec or -replay (nothing to record)"))
	}
	if *exploreWorkers < 0 {
		usage(fmt.Errorf("negative -explore-workers %d (want 1 = serial, 0 = one per spare core, or an explicit width)", *exploreWorkers))
	}
	if *netlat < 0 {
		usage(fmt.Errorf("negative -netlat %d", *netlat))
	}
	if *jitter < 0 {
		usage(fmt.Errorf("negative -jitter %d", *jitter))
	}
	if *procs < 1 {
		usage(fmt.Errorf("-procs %d out of range (want at least 1)", *procs))
	}
	if *iters < 0 {
		usage(fmt.Errorf("negative -iters %d", *iters))
	}
	if *dirShards < 1 {
		usage(fmt.Errorf("-dir-shards %d out of range (want at least 1)", *dirShards))
	}
	topo, err := interconnect.ParseTopology(*topology)
	if err != nil {
		usage(err)
	}
	if topo != interconnect.TopoFlat && *bus {
		usage(fmt.Errorf("-topology %s requires the network fabric (drop -bus)", topo))
	}
	if *clusterSize < 1 {
		usage(fmt.Errorf("-cluster-size %d out of range (want at least 1)", *clusterSize))
	}
	if *remoteLat < 0 {
		usage(fmt.Errorf("negative -remote-lat %d", *remoteLat))
	}
	rates := faults.Rates{}
	if *injectFaults {
		var err error
		if rates, err = faults.ParseRates(*faultRates); err != nil {
			usage(fmt.Errorf("invalid -fault-rates: %w", err))
		}
	} else if *faultRates != "" {
		usage(fmt.Errorf("-fault-rates requires -faults"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wosim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "wosim: %v\n", err)
			}
		}()
	}

	// Resolve the program and (for open-loop runs) the arrival source. Spec
	// and trace problems found here are usage errors: nothing has run yet.
	var prog *program.Program
	var src openloop.Source
	var traceHdr tracefmt.Header
	switch {
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			usage(fmt.Errorf("reading -spec: %w", err))
		}
		sp, err := spec.Parse(data)
		if err != nil {
			usage(fmt.Errorf("invalid -spec %s: %w", *specFile, err))
		}
		if prog, err = openloop.Program(sp); err != nil {
			usage(err)
		}
		gen, err := openloop.NewGenerator(sp, 0)
		if err != nil {
			usage(err)
		}
		src, traceHdr = gen, openloop.Header(sp)
	case *replayFile != "":
		f, err := os.Open(*replayFile)
		if err != nil {
			usage(fmt.Errorf("opening -replay: %w", err))
		}
		defer f.Close()
		r, err := tracefmt.NewReader(bufio.NewReader(f))
		if err != nil {
			usage(fmt.Errorf("invalid -replay %s: %w", *replayFile, err))
		}
		if prog, err = openloop.ReplayProgram(r.Header()); err != nil {
			usage(err)
		}
		src, traceHdr = openloop.NewReplayer(r), r.Header()
	default:
		switch *wl {
		case "prodcons":
			prog = workload.ProducerConsumer(*iters, *work)
		case "lock":
			prog = workload.Lock(*procs, *iters, *work, *work, sk)
		case "barrier":
			var err error
			if prog, err = workload.BuildBarrier(*procs, *iters, *work, sk); err != nil {
				usage(err)
			}
		case "fig3":
			prog = workload.Fig3(*procs-1, *work)
		}
	}
	// All file outputs below stream into same-directory temp files and are
	// renamed into place only when complete; the guard's signal handler
	// removes in-flight temps and exits with the distinct interrupted status,
	// so a kill at any instant can never leave a partial -record, -timeline
	// or -dump-trace file that looks valid.
	guard := newTempGuard()

	var traceW *tracefmt.Writer
	var traceOut *os.File
	if *recordFile != "" {
		var err error
		if traceOut, err = guard.create(*recordFile); err != nil {
			fatal(err)
		}
		if traceW, err = tracefmt.NewWriter(traceOut, traceHdr); err != nil {
			fatal(err)
		}
		src = openloop.NewRecorder(src, traceW)
	}

	cfg := machine.NewConfig(pol)
	cfg.NetLatency = sim.Time(*netlat)
	cfg.NetJitter = *jitter
	cfg.Seed = *seed
	if *bus {
		cfg.Fabric = machine.FabricBus
	}
	if *update {
		cfg.Protocol = machine.ProtocolUpdate
	}
	if *injectFaults {
		cfg.Faults = true
		cfg.FaultSeed = *faultSeed
		cfg.FaultRates = rates
	}
	cfg.DirShards = *dirShards
	cfg.Topology = topo
	cfg.ClusterSize = *clusterSize
	cfg.RemoteLatency = sim.Time(*remoteLat)
	cfg.RecordTrace = *check || *dump != ""
	cfg.Metrics = *showMetrics || *timeline != ""
	cfg.RecordTimings = *conds || *dump != ""
	if src != nil {
		cfg.Workload = openloop.Compile(src)
	}

	res, err := machine.Run(prog, cfg)
	if err != nil {
		fatal(err)
	}
	if traceW != nil {
		if err := traceW.Close(); err != nil {
			fatal(fmt.Errorf("closing -record trace: %w", err))
		}
		if err := guard.commit(traceOut, *recordFile); err != nil {
			fatal(fmt.Errorf("closing -record trace: %w", err))
		}
		fmt.Printf("arrival trace recorded to %s (%d records)\n", *recordFile, traceW.Count())
	}

	fmt.Printf("workload %s on %s: %d cycles, %d messages\n", prog.Name, pol, res.Cycles, res.Messages)
	if *injectFaults {
		fmt.Printf("faults: seed=%d rates=%s injected=%d\n", *faultSeed, rates, len(res.Injections))
	}
	tbl := stats.NewTable("per-processor", "proc", "finish", "reads", "writes", "syncs",
		"read stall", "sync stall", "local")
	for i, ps := range res.ProcStats {
		tbl.Row(fmt.Sprintf("P%d", i), int64(res.ProcFinish[i]),
			ps.Get("reads"), ps.Get("writes"), ps.Get("syncs"),
			ps.Get("read_stall_cycles"),
			ps.Get("sync_counter_stall_cycles")+ps.Get("sync_line_stall_cycles")+ps.Get("sync_performed_stall_cycles"),
			ps.Get("local_cycles"))
	}
	fmt.Println(tbl)
	agg := stats.NewCounters()
	for _, cs := range res.CacheStats {
		agg.Merge(cs)
	}
	fmt.Printf("caches: %s\n", agg)
	fmt.Printf("directory: %s\n", res.DirStats)
	if *dirShards > 1 {
		for i, ss := range res.DirShardStats {
			fmt.Printf("  shard %d (node %d): %s\n", i, *procs+i, ss)
		}
	}
	fmt.Printf("final memory:")
	for _, a := range prog.Addrs() {
		fmt.Printf(" x%d=%d", a, res.FinalMem[a])
	}
	fmt.Println()

	if *showMetrics {
		for _, mt := range res.Metrics.Tables() {
			fmt.Println(mt)
		}
	}
	if *timeline != "" {
		// Render and validate in memory, then publish atomically: the file
		// either exists complete and schema-valid, or not at all.
		var buf bytes.Buffer
		if err := res.Metrics.WriteTimeline(&buf, prog.Name); err != nil {
			fatal(err)
		}
		data := buf.Bytes()
		if err := metrics.ValidateTimeline(data); err != nil {
			fatal(fmt.Errorf("timeline failed self-validation: %w", err))
		}
		if err := guard.write(*timeline, data); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline written to %s (%d events validated)\n", *timeline, metrics.EventCount(data))
	}

	init := make(map[mem.Addr]mem.Value)
	for _, a := range prog.Addrs() {
		init[a] = 0
	}
	for a, v := range prog.Init {
		init[a] = v
	}
	if *check {
		opts := core.SCOptions{MaxStates: *maxStates}
		// The CLI's 0 means "auto" (one worker per spare core), which is the
		// kernel's negative width; 1 stays serial.
		if *exploreWorkers == 0 {
			opts.Workers = -1
		} else {
			opts.Workers = *exploreWorkers
		}
		w, err := core.SCCheckOpt(res.Trace, init, opts)
		if err != nil {
			if errors.Is(err, explore.ErrStateBudget) {
				fmt.Fprintf(os.Stderr, "wosim: trace check: state budget exhausted: %v (rerun with a larger -max-states)\n", err)
				os.Exit(2)
			}
			fatal(err)
		}
		if w.SC {
			fmt.Println("trace check: sequentially consistent")
		} else {
			fmt.Println("trace check: NOT sequentially consistent")
			os.Exit(1)
		}
	}
	if *conds {
		rep := conditions.Check(res.Timings)
		if pol == proc.PolicyWODef2DRF1 {
			rep = conditions.CheckRefined(res.Timings)
		}
		fmt.Println(rep)
		if !rep.OK() {
			os.Exit(1)
		}
	}
	if *dump != "" {
		f, err := guard.create(*dump)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(f, res.Trace, init, res.Timings); err != nil {
			fatal(err)
		}
		if err := guard.commit(f, *dump); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *dump)
	}
}

// tempGuard gives every output file crash/kill atomicity: writes stream into
// a same-directory temp file that is renamed over the destination only when
// complete. Its signal handler (SIGINT/SIGTERM) removes every in-flight temp
// and exits with status 3 — distinct from a failed run (1) and a usage error
// (2) — so an interrupted wosim never leaves a partial output behind.
type tempGuard struct {
	mu    sync.Mutex
	temps map[string]bool
}

func newTempGuard() *tempGuard {
	g := &tempGuard{temps: make(map[string]bool)}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		g.mu.Lock() // serializes with an in-progress commit
		for t := range g.temps {
			os.Remove(t)
		}
		fmt.Fprintf(os.Stderr, "wosim: interrupted (%v); partial output(s) removed\n", sig)
		os.Exit(3)
	}()
	return g
}

// create opens a tracked temp file next to path.
func (g *tempGuard) create(path string) (*os.File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.temps[f.Name()] = true
	g.mu.Unlock()
	return f, nil
}

// commit syncs, closes and renames a temp file over its destination.
func (g *tempGuard) commit(f *os.File, path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	name := f.Name()
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(name, path); err != nil {
		return err
	}
	delete(g.temps, name)
	return nil
}

// write publishes a complete in-memory payload atomically.
func (g *tempGuard) write(path string, data []byte) error {
	f, err := g.create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return g.commit(f, path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wosim: %v\n", err)
	os.Exit(1)
}

// usage reports a flag-validation error. Usage errors exit with status 2 —
// distinct from a failed run (1) — so scripts can tell "you called it wrong"
// from "the simulation found a problem".
func usage(err error) {
	fmt.Fprintf(os.Stderr, "wosim: %v\n", err)
	os.Exit(2)
}
