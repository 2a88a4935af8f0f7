package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"weakorder/internal/chaos"
	"weakorder/internal/digest"
	"weakorder/internal/faults"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

// DefaultCheckpointEvery is the default number of seeds between checkpoint
// snapshots (and the granularity of the seed fan-out).
const DefaultCheckpointEvery = 16

// Runner executes one campaign Spec: generates the deterministic program
// stream, fans each block of seeds across the internal/par pool, consults
// the result cache before exploring, assembles the report in seed order, and
// checkpoints after every block. Everything observable — the report, the
// reproducer files, the verbose lines — is a pure function of the Spec, so
// interruption plus resume reproduces an uninterrupted run byte for byte.
type Runner struct {
	Spec Spec
	// Store is the result cache; nil runs uncached.
	Store *Store
	// CheckpointDir, when set, receives atomic checkpoint snapshots after
	// every block and on interruption.
	CheckpointDir string
	// Resume continues the checkpoint in CheckpointDir (which must exist and
	// carry the same Spec). Without Resume, an existing checkpoint is an
	// error — a fresh campaign never silently clobbers a resumable one.
	Resume bool
	// CheckpointEvery is the block size in seeds (0 = DefaultCheckpointEvery).
	CheckpointEvery int
	// Out, when set, receives minimized reproducer files (.litmus and
	// .go.txt), written atomically.
	Out string
	// Budget bounds wall-clock time; exceeding it stops at the next block
	// boundary with a checkpoint, like a kill (0 = unbounded).
	Budget time.Duration
	// Verbose, when non-nil, receives one line per program in seed order.
	Verbose io.Writer
	// Log, when non-nil, receives violation/failure notices as they are
	// found (the CLI passes stderr).
	Log io.Writer
	// Progress, when non-nil, is called once per program in seed order with
	// the report entry and whether it was answered from the cache.
	Progress func(sr SeedReport, cached bool)
	// StopAfter, when positive, interrupts the run after that many seeds
	// have been processed in THIS leg (checkpointing first) — the
	// deterministic stand-in for a kill, used by the resume-equivalence
	// tests and the service shutdown path.
	StopAfter int
	// Workers is the campaign fan-out width (0 = auto from the par budget).
	// Reports are identical at every width — the fan-out is order-preserving
	// — which the resume-equivalence tests pin.
	Workers int
}

// Run executes the campaign until completion or interruption. On
// interruption (context cancellation, budget exhaustion, StopAfter) it
// checkpoints, and returns the partial report with an error satisfying
// errors.Is(err, ErrInterrupted). Hard failures (I/O, internal errors)
// return a nil report.
func (r *Runner) Run(ctx context.Context) (*Report, *Summary, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	sum := &Summary{}

	rep := &Report{Mode: r.Spec.mode(), Seeds: r.Spec.Seeds, BaseSeed: r.Spec.BaseSeed}
	next := 0

	// Mode machinery (resolved up front so bad specs fail before work).
	var factories []litmus.Factory
	var chaosOpts Options
	xt := *fuzz.DefaultExplorer()
	if r.Spec.MaxStates > 0 {
		xt.MaxStates = r.Spec.MaxStates
	}
	var rates faults.Rates
	switch r.Spec.mode() {
	case ModeFuzz:
		var err error
		factories, err = litmus.FactoriesByNames(r.Spec.Machines)
		if err != nil {
			return nil, nil, err
		}
		if len(factories) == 0 {
			return nil, nil, errors.New("campaign: no machines selected")
		}
		for _, f := range factories {
			rep.Machines = append(rep.Machines, f.Name)
		}
	case ModeChaos:
		var err error
		if rates, err = faults.ParseRates(r.Spec.FaultRates); err != nil {
			return nil, nil, err
		}
		chaosOpts = Options{Machines: []string{"timed-def2"}, MaxStates: xt.MaxStates, MaxTraceOps: xt.MaxTraceOps,
			Chaos: true, FaultRates: rates}
	}

	// Resume or start fresh. A fresh campaign refuses to overwrite an
	// existing checkpoint; a resume refuses a spec mismatch. Both guards
	// exist so crash recovery can never silently compute the wrong report.
	if r.CheckpointDir != "" {
		cp, err := LoadCheckpoint(r.CheckpointDir)
		switch {
		case r.Resume && err != nil:
			return nil, nil, fmt.Errorf("campaign: resuming %s: %w", r.CheckpointDir, err)
		case r.Resume:
			if !SameSpec(cp.Spec, r.Spec) {
				return nil, nil, fmt.Errorf("campaign: checkpoint in %s was written under a different spec", r.CheckpointDir)
			}
			rep = cp.Report
			next = cp.Next
			sum.CacheHits = cp.CacheHits
			sum.Explored = cp.Explored
		case err == nil:
			return nil, nil, fmt.Errorf("campaign: %s already holds a checkpoint (resume it, or use a fresh directory)", r.CheckpointDir)
		case !errors.Is(err, os.ErrNotExist):
			return nil, nil, err
		}
	} else if r.Resume {
		return nil, nil, errors.New("campaign: Resume requires CheckpointDir")
	}

	every := r.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}

	type cell struct {
		v      Verdict
		name   string
		config string
		cached bool
	}

	processed := 0 // seeds completed in this leg
	interrupt := func(cause error) (*Report, *Summary, error) {
		if r.CheckpointDir != "" {
			if err := r.checkpoint(rep, next, sum); err != nil {
				return nil, nil, err
			}
		}
		sum.Elapsed = time.Since(start)
		return rep, sum, cause
	}

	for next < r.Spec.Seeds {
		if err := ctx.Err(); err != nil {
			return interrupt(fmt.Errorf("%w after %d/%d seeds: %v", ErrInterrupted, next, r.Spec.Seeds, err))
		}
		if r.Budget > 0 && time.Since(start) > r.Budget {
			return interrupt(fmt.Errorf("%w after %d/%d seeds: wall-clock budget %s exhausted", ErrInterrupted, next, r.Spec.Seeds, r.Budget))
		}
		n := r.Spec.Seeds - next
		if n > every {
			n = every
		}
		if r.StopAfter > 0 {
			if left := r.StopAfter - processed; left <= 0 {
				return interrupt(fmt.Errorf("%w after %d/%d seeds: stop-after limit", ErrInterrupted, next, r.Spec.Seeds))
			} else if n > left {
				n = left
			}
		}

		// One block: verdicts computed in parallel on the shared par pool
		// (auto width, so concurrent campaigns share the process budget),
		// assembled strictly in seed order below.
		cells, err := par.Map(make([]struct{}, n), r.Workers, func(j int, _ struct{}) (cell, error) {
			i := next + j
			switch r.Spec.mode() {
			case ModeChaos:
				v, name, cached, err := r.chaosSeed(i, xt, rates, chaosOpts)
				return cell{v: v, name: name, cached: cached}, err
			default:
				v, name, cfg, cached, err := r.fuzzSeed(i, factories, xt)
				return cell{v: v, name: name, config: cfg, cached: cached}, err
			}
		})
		if err != nil {
			return nil, nil, err
		}

		for j, c := range cells {
			i := next + j
			if c.cached {
				sum.CacheHits++
			} else {
				sum.Explored += c.v.States
			}
			sr := r.assemble(rep, i, c.name, c.config, c.v)
			if r.Out != "" && len(c.v.Reproducers) > 0 {
				if err := r.writeReproducers(c.name, c.v); err != nil {
					return nil, nil, err
				}
			}
			if r.Verbose != nil {
				r.verboseLine(sr)
			}
			if r.Progress != nil {
				r.Progress(sr, c.cached)
			}
		}
		next += n
		processed += n

		if r.CheckpointDir != "" {
			if err := r.checkpoint(rep, next, sum); err != nil {
				return nil, nil, err
			}
		}
	}

	sum.Elapsed = time.Since(start)
	return rep, sum, nil
}

// checkpoint writes an atomic snapshot of the campaign at seed boundary next.
func (r *Runner) checkpoint(rep *Report, next int, sum *Summary) error {
	return WriteCheckpoint(r.CheckpointDir, &Checkpoint{
		Version:   CheckpointVersion,
		Spec:      r.Spec,
		Next:      next,
		Report:    rep,
		CacheHits: sum.CacheHits,
		Explored:  sum.Explored,
	})
}

// fuzzSeed computes (or retrieves) the verdict of fuzz-campaign seed i.
func (r *Runner) fuzzSeed(i int, factories []litmus.Factory, xt model.Explorer) (Verdict, string, string, bool, error) {
	cfgName, p := ProgramFor(r.Spec.BaseSeed, i)
	v, _, cached, err := FuzzVerdict(r.Store, p, factories, xt, r.Spec.Minimize)
	if err != nil {
		return Verdict{}, "", "", false, err
	}
	return v, p.Name, cfgName, cached, nil
}

// FuzzVerdict computes — or retrieves from store — the differential verdict
// of p on factories under xt's budgets, and returns it with the cache key it
// stands under: Key of p and the Options of factories' names, xt.MaxStates and
// xt.MaxTraceOps. It is the one verdict path shared by the campaign Runner
// and the server's single-program endpoint, so both populate and consult the
// same cache entries. A negative xt.Workers runs the verdict's explorations
// side by side (fuzz.Checker.Check); every other setting of xt but the two
// budgets must be the fuzzing default's. A cached verdict that lacks
// reproducers is treated as a miss when minimization is requested (the
// entry is then recomputed with reproducers and overwritten, upgrading the
// cache).
func FuzzVerdict(store *Store, p *program.Program, factories []litmus.Factory, xt model.Explorer, minimize bool) (Verdict, digest.Sum, bool, error) {
	opts := Options{Machines: make([]string, len(factories)), MaxStates: xt.MaxStates, MaxTraceOps: xt.MaxTraceOps}
	for i, f := range factories {
		opts.Machines[i] = f.Name
	}
	key := Key(p, opts)
	if store != nil {
		if data, ok := store.Get(key); ok {
			var v Verdict
			if err := json.Unmarshal(data, &v); err == nil &&
				(!minimize || len(v.Violating) == 0 || v.Reproducers != nil) {
				return v, key, true, nil
			}
			// Undecodable or missing requested reproducers: recompute and
			// overwrite.
		}
	}
	x := xt
	chk := &fuzz.Checker{Explorer: &x, Machines: factories}
	crep, err := chk.Check(p)
	var v Verdict
	switch {
	case err != nil && errors.Is(err, model.ErrStateBudget):
		// Skipped, but not free: the explorations that ran still count.
		v.Skipped = true
		v.States = crep.States
	case err != nil:
		return Verdict{}, key, false, err
	default:
		v.DRF0 = crep.DRF0
		v.SCOutcomes = crep.SCOutcomes
		v.RacyNonSC = crep.RacyNonSC()
		v.Violating = crep.Violating()
		v.States = crep.States
		if len(v.Violating) > 0 && minimize {
			minimizeInto(&v, p, &x)
		}
	}
	if store != nil {
		if err := putVerdict(store, key, &v); err != nil {
			return Verdict{}, key, false, err
		}
	}
	return v, key, false, nil
}

// minimizeInto delta-debugs p against each violating machine, recording the
// reproducers in the verdict (and hence in the cache: a resumed or cache-hit
// campaign re-emits identical files without re-shrinking). A reproducer's
// header lists the result keys of the Extra outcomes of one Check of the
// minimized program on its machine, sorted; [] if that Check fails.
func minimizeInto(v *Verdict, p *program.Program, x *model.Explorer) {
	v.Reproducers = make(map[string]string, len(v.Violating))
	v.ReproducersGo = make(map[string]string, len(v.Violating))
	for _, name := range v.Violating {
		f, ok := litmus.FactoryByName(name)
		if !ok {
			continue // violating names come from the factory list
		}
		min := fuzz.Minimize(p, f, x)
		sz := fuzz.SizeOf(min)
		var extra []string
		if rep, err := (&fuzz.Checker{Explorer: x, Machines: []litmus.Factory{f}}).Check(min); err == nil {
			for _, r := range rep.Machines[0].Extra {
				extra = append(extra, r.Key())
			}
		}
		header := []string{
			fmt.Sprintf("minimized reproducer: %s violates Definition 2 on %s", p.Name, name),
			fmt.Sprintf("size: %d thread(s), longest %d op(s), %d address(es)", sz.Threads, sz.MaxOps, sz.Addrs),
			fmt.Sprintf("non-SC outcomes: %v", extra),
		}
		v.Reproducers[name] = fuzz.EmitLitmus(min, header...)
		v.ReproducersGo[name] = fmt.Sprintf("// %s: minimized Definition-2 violation on %s\n%s", min.Name, name, fuzz.EmitGo(min))
	}
}

// chaosSeed computes (or retrieves) the verdict of chaos-campaign seed i.
func (r *Runner) chaosSeed(i int, xt model.Explorer, rates faults.Rates, opts Options) (Verdict, string, bool, error) {
	p := ChaosProgramFor(r.Spec.BaseSeed, i)
	faultSeed := r.Spec.FaultSeed + int64(i)
	opts.FaultSeed = faultSeed
	var key [16]byte
	if r.Store != nil {
		key = Key(p, opts)
		if data, ok := r.Store.Get(key); ok {
			var v Verdict
			if err := json.Unmarshal(data, &v); err == nil {
				return v, p.Name, true, nil
			}
		}
	}
	x := xt
	var v Verdict
	scOut, err := chaos.SCOutcomes(p, &x)
	if err != nil && errors.Is(err, model.ErrStateBudget) {
		v.Skipped = true
	} else if err != nil {
		return Verdict{}, "", false, err
	} else {
		c, err := chaos.RunCase(p, faultSeed, rates, chaos.CanonicalSet(scOut))
		if err != nil {
			v.CompletionError = err.Error()
		} else {
			v.Completed = true
			v.Contained = c.Contained
			v.Faults = c.Faults
			v.Retries = c.Retries
			v.Tolerated = c.Tolerated
		}
	}
	if r.Store != nil {
		if err := putVerdict(r.Store, key, &v); err != nil {
			return Verdict{}, "", false, err
		}
	}
	return v, p.Name, false, nil
}

// putVerdict stores a verdict in the cache.
func putVerdict(store *Store, key [16]byte, v *Verdict) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return store.Put(key, data)
}

// assemble folds seed i's verdict into the report, in seed order, and
// returns the report entry.
func (r *Runner) assemble(rep *Report, i int, name, config string, v Verdict) SeedReport {
	sr := SeedReport{
		Index: i, Seed: r.Spec.BaseSeed + int64(i), Name: name, Config: config,
		DRF0: v.DRF0, Skipped: v.Skipped, SCOutcomes: v.SCOutcomes,
		RacyNonSC: v.RacyNonSC, Violating: v.Violating, Reproducers: v.Reproducers,
	}
	if rep.Mode == ModeChaos {
		sr.FaultSeed = r.Spec.FaultSeed + int64(i)
		sr.Completed = v.Completed
		sr.CompletionError = v.CompletionError
		sr.Contained = v.Contained
		sr.Faults = v.Faults
		sr.Retries = v.Retries
		sr.Tolerated = v.Tolerated
	}
	switch {
	case rep.Mode == ModeChaos:
		switch {
		case v.Skipped:
			rep.Skipped++
		case !v.Completed:
			rep.Failures++
			if r.Log != nil {
				fmt.Fprintf(r.Log, "wofuzz: CHAOS COMPLETION FAILURE: %s\n", v.CompletionError)
			}
		default:
			rep.Checked++
			rep.Faults += v.Faults
			rep.Retries += v.Retries
			rep.Tolerated += v.Tolerated
			if !v.Contained {
				rep.Failures++
				if r.Log != nil {
					fmt.Fprintf(r.Log, "wofuzz: CHAOS CONTAINMENT ESCAPE: %s (seed %d, fault seed %d) outcome outside the SC set\n",
						name, sr.Seed, sr.FaultSeed)
				}
			}
		}
	case v.Skipped:
		rep.Skipped++
	default:
		rep.Checked++
		if v.DRF0 {
			rep.DRF0++
		} else {
			rep.Racy++
		}
		if v.RacyNonSC {
			rep.RacyNonSC++
		}
		if len(v.Violating) > 0 {
			rep.Violations++
			if r.Log != nil {
				fmt.Fprintf(r.Log, "wofuzz: VIOLATION: %s breaks Definition 2 on %v\n", name, v.Violating)
			}
		}
	}
	rep.Programs = append(rep.Programs, sr)
	return sr
}

// verboseLine prints the per-program line in the historical wofuzz format.
func (r *Runner) verboseLine(sr SeedReport) {
	if r.Spec.mode() == ModeChaos {
		fmt.Fprintf(r.Verbose, "[%3d] seed=%-6d fault-seed=%-6d %-22s faults=%-3d retries=%-3d tolerated=%-3d contained=%v\n",
			sr.Index, sr.Seed, sr.FaultSeed, sr.Name, sr.Faults, sr.Retries, sr.Tolerated, sr.Contained)
		return
	}
	fmt.Fprintf(r.Verbose, "[%3d] seed=%-6d %-12s %-22s drf0=%-5v skipped=%v violating=%v\n",
		sr.Index, sr.Seed, sr.Config, sr.Name, sr.DRF0, sr.Skipped, sr.Violating)
}

// writeReproducers atomically writes the verdict's minimized reproducers
// into Out, under the historical names (<prog>-min-<machine>.litmus and
// .go.txt). Atomic temp+rename guarantees no kill can leave a truncated
// reproducer that looks valid.
func (r *Runner) writeReproducers(progName string, v Verdict) error {
	if err := os.MkdirAll(r.Out, 0o755); err != nil {
		return err
	}
	for _, machine := range v.Violating {
		lit, ok := v.Reproducers[machine]
		if !ok {
			continue
		}
		base := filepath.Join(r.Out, fmt.Sprintf("%s-min-%s", progName, machine))
		if err := WriteFileAtomic(base+".litmus", []byte(lit), 0o644); err != nil {
			return err
		}
		if code, ok := v.ReproducersGo[machine]; ok {
			if err := WriteFileAtomic(base+".go.txt", []byte(code), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
