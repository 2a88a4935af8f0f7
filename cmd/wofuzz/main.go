// Command wofuzz runs a differential fuzzing campaign against the
// Definition-2 contract: random litmus programs are generated, classified as
// DRF0 or racy, and run on every machine under test against the SC reference.
// A machine that claims weak ordering and produces a non-SC outcome on a DRF0
// program is a contract violation; the violating program is delta-debugged to
// a minimal reproducer, written out as both litmus text and ready-to-paste
// program.Builder code.
//
// Usage:
//
//	wofuzz [-seeds N] [-seed S] [-budget DUR] [-machines CSV] [-minimize]
//	       [-max-states N] [-json PATH] [-out DIR] [-checkpoint DIR]
//	       [-cache PATH] [-v]
//	wofuzz -resume DIR [-json PATH] [-out DIR] [-cache PATH] [-v]
//	wofuzz -chaos [-seeds N] [-seed S] [-budget DUR] [-fault-seed S]
//	       [-fault-rates drop=P,dup=P,...] [-max-states N]
//	       [-json PATH] [-checkpoint DIR] [-cache PATH] [-v]
//
// The campaign engine is internal/campaign: seeds fan out over the shared
// worker pool in checkpoint-sized blocks, and every verdict is a pure
// function of the campaign spec, so the same flags always produce the same
// report bytes. Each exploration runs serially with the partial-order
// reduction on, because how a search enumerates decides where a state
// budget trips (see internal/campaign's Options).
//
// -checkpoint DIR snapshots campaign state atomically after every block; a
// killed campaign (SIGINT/SIGTERM, or -budget running out) leaves a resumable
// checkpoint plus a valid partial JSON report, and exits with status 3 when
// the stop was a signal. `wofuzz -resume DIR` continues exactly where the
// campaign stopped — the spec is restored from the checkpoint, and the final
// report is byte-identical to an uninterrupted run's.
//
// -cache PATH attaches the digest-keyed result cache: verdicts already
// computed for a (program, machines, budgets, fault schedule) combination —
// by any previous campaign or by the wocampd service — are answered without
// re-exploration. The cache is an append-only checksummed log; corrupt tails
// from a crash are truncated on open, never trusted.
//
// -chaos switches the campaign to the differential chaos harness
// (internal/chaos): random DRF0 programs run on the *timed* Definition-2
// machine over the deterministic fault-injecting fabric, asserting every run
// completes under bounded retry and lands inside the program's SC outcome
// set. A completion failure or containment escape exits with status 1.
//
// -machines accepts a comma-separated list of machine names plus the aliases
// "weak" (every machine claiming the contract; the default), "all", and
// "broken" (the known-bad fixtures — useful for demonstrating the
// catch-and-shrink pipeline end to end).
//
// Exit status: 0 clean campaign, 1 violation found (or usage/internal error),
// 2 state budget exhausted on every program (nothing was decided), 3
// interrupted by signal with a checkpoint saved.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"weakorder/internal/campaign"
	"weakorder/internal/faults"
	"weakorder/internal/model"
)

func main() {
	seeds := flag.Int("seeds", 64, "number of random programs to generate")
	baseSeed := flag.Int64("seed", 1, "base seed; program i uses seed+i")
	budget := flag.Duration("budget", 0, "wall-clock budget; 0 = run all seeds")
	machinesCSV := flag.String("machines", "weak", `machines to test: comma-separated names, "weak", "all", or "broken"`)
	minimize := flag.Bool("minimize", true, "delta-debug violating programs to minimal reproducers")
	maxStates := flag.Int("max-states", 0, "per-exploration state budget (0 = fuzzing default)")
	jsonPath := flag.String("json", "", `write a JSON campaign report to PATH ("-" = stdout)`)
	outDir := flag.String("out", "", "write minimized reproducers (.litmus and .go) into DIR")
	checkpointDir := flag.String("checkpoint", "", "snapshot campaign state into DIR so a killed campaign can be resumed")
	resumeDir := flag.String("resume", "", "resume the checkpointed campaign in DIR (spec is restored from the checkpoint)")
	cachePath := flag.String("cache", "", "digest-keyed result cache segment; hits skip re-exploration")
	verbose := flag.Bool("v", false, "log every program checked")
	chaosMode := flag.Bool("chaos", false, "run the differential chaos campaign on the timed machine under fault injection")
	faultSeed := flag.Int64("fault-seed", 1, "chaos: base fault seed; program i uses fault-seed+i")
	faultRates := flag.String("fault-rates", "", "chaos: fault rates (empty = defaults)")
	flag.Parse()

	spec := campaign.Spec{
		Seeds:     *seeds,
		BaseSeed:  *baseSeed,
		Machines:  *machinesCSV,
		MaxStates: *maxStates,
		Minimize:  *minimize,
	}
	if *chaosMode {
		spec.Mode = campaign.ModeChaos
		spec.Machines = ""
		spec.Minimize = false
		spec.FaultSeed = *faultSeed
		spec.FaultRates = *faultRates
	}

	r := &campaign.Runner{
		Spec:          spec,
		CheckpointDir: *checkpointDir,
		Out:           *outDir,
		Budget:        *budget,
		Log:           os.Stderr,
	}
	if *resumeDir != "" {
		if *checkpointDir != "" {
			fatal(errors.New("-resume and -checkpoint are exclusive (resume continues the checkpoint in DIR)"))
		}
		cp, err := campaign.LoadCheckpoint(*resumeDir)
		if err != nil {
			fatal(fmt.Errorf("resuming %s: %w", *resumeDir, err))
		}
		// The spec lives in the checkpoint: a resumed campaign always
		// continues under the parameters it started with.
		r.Spec = cp.Spec
		r.CheckpointDir = *resumeDir
		r.Resume = true
	}
	if *verbose {
		r.Verbose = os.Stdout
	}
	if *cachePath != "" {
		store, err := campaign.OpenStore(*cachePath)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		if store.Discarded > 0 {
			fmt.Fprintf(os.Stderr, "wofuzz: cache %s: %d stale/damaged byte(s) discarded, %d entrie(s) recovered\n",
				*cachePath, store.Discarded, store.Recovered)
		}
		r.Store = store
	}

	// A signal interrupts the campaign between blocks: the engine writes a
	// final checkpoint, and the partial JSON report below is still valid.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, sum, err := r.Run(ctx)
	interrupted := err != nil && errors.Is(err, campaign.ErrInterrupted)
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "wofuzz: %v\n", err)
	}

	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			fatal(err)
		}
	}

	elapsed := sum.Elapsed.Round(time.Millisecond)
	if rep.Mode == campaign.ModeChaos {
		// Spec validation already parsed the rates; render the canonical form
		// (the historical summary prints the parsed rates, not the raw flag).
		rates, _ := faults.ParseRates(r.Spec.FaultRates)
		fmt.Printf("wofuzz chaos: %d checked, %d faults injected, %d retries, %d tolerated, %d failure(s) in %s (rates %s)\n",
			rep.Checked, rep.Faults, rep.Retries, rep.Tolerated, rep.Failures, elapsed, rates)
	} else {
		fmt.Printf("wofuzz: %d checked (%d drf0, %d racy, %d racy-non-SC), %d skipped, %d violation(s) in %s\n",
			rep.Checked, rep.DRF0, rep.Racy, rep.RacyNonSC, rep.Skipped, rep.Violations, elapsed)
	}
	if r.Store != nil {
		st := r.Store.Stats()
		fmt.Printf("wofuzz: cache %d hit(s), %d put(s), %d entrie(s); %d state(s) explored this run\n",
			sum.CacheHits, st.Puts, st.Entries, sum.Explored)
	}

	// A signal stop gets its own status (3) so wrappers can tell "killed with
	// a resumable checkpoint" from "violations" (1) or "undecided" (2); a
	// -budget stop keeps the historical exit behavior.
	if interrupted && ctx.Err() != nil {
		if r.CheckpointDir != "" {
			fmt.Fprintf(os.Stderr, "wofuzz: interrupted; resume with: wofuzz -resume %s\n", r.CheckpointDir)
		} else {
			fmt.Fprintln(os.Stderr, "wofuzz: interrupted (no -checkpoint; progress was not saved)")
		}
		os.Exit(3)
	}
	if rep.Mode == campaign.ModeChaos {
		if rep.Failures > 0 {
			fmt.Fprintln(os.Stderr, "wofuzz: CHAOS PROPERTY VIOLATION(S) FOUND")
			os.Exit(1)
		}
		return
	}
	if rep.Violations > 0 {
		fmt.Fprintln(os.Stderr, "wofuzz: DEFINITION-2 VIOLATION(S) FOUND")
		os.Exit(1)
	}
	if rep.Checked == 0 && rep.Skipped > 0 {
		fmt.Fprintln(os.Stderr, "wofuzz: state budget exhausted on every program — nothing was decided (raise -max-states)")
		os.Exit(2)
	}
}

// writeReport writes the campaign report: to stdout for "-", else atomically
// (temp + rename) so a kill mid-write can never leave a torn report file.
func writeReport(path string, rep *campaign.Report) error {
	if path == "-" {
		data, err := campaign.MarshalReport(rep)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	return campaign.WriteJSONAtomic(path, rep)
}

// fatal aborts the campaign. A state-budget error gets its own exit status
// (2) and wording: it means "the search was too big to finish", not "a
// violation was found" (1) or a usage/IO failure.
func fatal(err error) {
	if errors.Is(err, model.ErrStateBudget) {
		fmt.Fprintf(os.Stderr, "wofuzz: state budget exhausted: %v (raise -max-states)\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "wofuzz: %v\n", err)
	os.Exit(1)
}
