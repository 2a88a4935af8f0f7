// Package chaos is the differential chaos harness: it runs programs on the
// *timed* Definition-2 machine (internal/machine with proc.PolicyWODef2) over
// a fault-injecting fabric (internal/faults) and checks the three contract
// properties the hardening must provide:
//
//   - Completion: every run finishes under bounded retry — no deadlock, no
//     retry exhaustion, no watchdog firing at the documented default rates.
//   - Containment: for DRF0 programs the observed outcome (reads + final
//     memory) lies inside the program's SC outcome set computed by the
//     model-level explorer — the paper's Definition-2 contract, now asserted
//     under an adversarial fabric.
//   - Replay: a fixed (program, fault seed) pair reproduces byte-identically
//     — same outcome key, same injection log — so any failure is a
//     deterministic reproducer.
//
// The harness is driven by this package's tests (litmus corpus + random
// programs across a seed sweep), by cmd/wofuzz's -chaos mode, and by the CI
// chaos jobs.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/core"
	"weakorder/internal/faults"
	"weakorder/internal/fuzz"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/proc"
	"weakorder/internal/program"
)

// MachineConfig returns the chaos-campaign machine configuration: the
// Definition-2 timed machine on the network fabric with trace recording and
// fault injection at the given seed and rates (zero rates mean the documented
// defaults).
func MachineConfig(faultSeed int64, rates faults.Rates) machine.Config {
	cfg := machine.NewConfig(proc.PolicyWODef2)
	cfg.RecordTrace = true
	cfg.Faults = true
	cfg.FaultSeed = faultSeed
	cfg.FaultRates = rates
	return cfg
}

// TimedOutcome extracts the paper's result notion from a timed run: the
// values returned by all reads (from the recorded trace) plus the final
// memory state. Comparable by Key() with the model explorer's outcomes, whose
// final state covers the same program address set.
func TimedOutcome(r *machine.Result) mem.Result {
	out := mem.Result{Reads: make(map[mem.ReadKey]mem.Value), Final: r.FinalMem}
	if r.Trace != nil {
		for _, ev := range r.Trace.Events {
			if ev.Op.Reads() {
				out.Reads[mem.ReadKey{Proc: ev.Proc, Index: ev.Index}] = ev.Value
			}
		}
	}
	return out
}

// SCOutcomes computes the program's SC outcome set with the model explorer
// (nil means fuzz.DefaultExplorer()).
func SCOutcomes(p *program.Program, x *model.Explorer) (core.OutcomeSet, error) {
	if x == nil {
		x = fuzz.DefaultExplorer()
	}
	scOut, _, err := x.Outcomes(model.NewSC(p))
	if err != nil {
		return nil, fmt.Errorf("chaos: SC outcomes of %s: %w", p.Name, err)
	}
	return scOut, nil
}

// CanonicalKey renders a result spin-insensitively: per processor, reads are
// taken in program order, runs of consecutive equal values are collapsed to
// one, and positions renumbered densely; the final memory state is appended
// unchanged. A spin loop that polls its flag 3 or 300 times before observing
// the release yields the same canonical key, so outcomes of the timed machine
// (whose spin counts depend on latencies and injected faults) are comparable
// with the model explorer's bounded executions. This is stutter equivalence
// on each processor's read observation sequence; both sides of a containment
// check must use it.
func CanonicalKey(r mem.Result) string {
	perProc := make(map[mem.ProcID][]mem.ReadKey)
	for k := range r.Reads {
		perProc[k.Proc] = append(perProc[k.Proc], k)
	}
	procs := make([]mem.ProcID, 0, len(perProc))
	for p := range perProc {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var b strings.Builder
	for _, p := range procs {
		ks := perProc[p]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Index < ks[j].Index })
		pos := 0
		for i, k := range ks {
			v := r.Reads[k]
			if i > 0 && r.Reads[ks[i-1]] == v {
				continue // stutter: same value as the previous read
			}
			fmt.Fprintf(&b, "P%d.%d=%d;", p, pos, v)
			pos++
		}
	}
	b.WriteByte('|')
	addrs := make([]mem.Addr, 0, len(r.Final))
	for a := range r.Final {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&b, "x%d=%d;", a, r.Final[a])
	}
	return b.String()
}

// CanonicalSet maps an outcome set to its canonical-key form for containment
// checks against timed outcomes, decoding each member's Result.
func CanonicalSet(out core.OutcomeSet) map[string]bool {
	set := make(map[string]bool, len(out))
	for k := range out {
		set[CanonicalKey(out.Result(k))] = true
	}
	return set
}

// Case is the verdict of one (program, fault seed) chaos run.
type Case struct {
	Prog string
	Seed int64
	// OutcomeKey is the exact rendering of the observed result (the replay
	// fingerprint); Canonical is its spin-insensitive form, the one
	// containment is decided on.
	OutcomeKey string
	Canonical  string
	// InjectionLog is the canonical fault log; together with OutcomeKey it
	// is the replay fingerprint.
	InjectionLog string
	// Faults is the number of injected faults.
	Faults int
	// Retries/Tolerated count the recovery machinery's activations, summed
	// over caches and the directory.
	Retries   int64
	Tolerated int64
	// Checked marks that containment was decided (an SC set was supplied);
	// Contained is its verdict.
	Checked   bool
	Contained bool
}

// RunCase runs one program once under the given fault seed and rates, and
// checks the canonical outcome against sc when non-nil (a canonical SC set
// from CanonicalSet). A non-nil error means the completion property failed
// (protocol error, retry exhaustion, watchdog, deadlock, or budget).
func RunCase(p *program.Program, faultSeed int64, rates faults.Rates, sc map[string]bool) (*Case, error) {
	r, err := machine.Run(p, MachineConfig(faultSeed, rates))
	if err != nil {
		return nil, fmt.Errorf("chaos: %s seed %d: %w", p.Name, faultSeed, err)
	}
	out := TimedOutcome(r)
	c := &Case{
		Prog:         p.Name,
		Seed:         faultSeed,
		OutcomeKey:   out.Key(),
		Canonical:    CanonicalKey(out),
		InjectionLog: r.InjectionLog,
		Faults:       len(r.Injections),
	}
	for _, cs := range r.CacheStats {
		c.Retries += cs.Get("request_retries") + cs.Get("nacks_received")
		for _, k := range []string{"stale_data", "dup_data", "stale_writeack", "stale_inv", "stale_fwd", "stale_update", "stale_nack"} {
			c.Tolerated += cs.Get("tolerated_" + k)
		}
	}
	for _, k := range []string{"dup_request", "stray_ack", "stale_ack", "dup_ack", "stray_downgrade", "stale_downgrade", "stray_transfer", "stale_transfer"} {
		c.Tolerated += r.DirStats.Get("tolerated_" + k)
	}
	if sc != nil {
		c.Checked = true
		c.Contained = sc[c.Canonical]
	}
	return c, nil
}

// CheckReplay runs the same (program, fault seed) twice and returns an error
// unless both runs are byte-identical in outcome key and injection log.
// (Programs are immutable specs, so rerunning one is safe.)
func CheckReplay(p *program.Program, faultSeed int64, rates faults.Rates) error {
	a, err := RunCase(p, faultSeed, rates, nil)
	if err != nil {
		return err
	}
	b, err := RunCase(p, faultSeed, rates, nil)
	if err != nil {
		return err
	}
	if a.OutcomeKey != b.OutcomeKey {
		return fmt.Errorf("chaos: replay diverged on outcome for %s seed %d:\n  first:  %s\n  second: %s",
			a.Prog, faultSeed, a.OutcomeKey, b.OutcomeKey)
	}
	if a.InjectionLog != b.InjectionLog {
		return fmt.Errorf("chaos: replay diverged on injection log for %s seed %d:\n--- first ---\n%s--- second ---\n%s",
			a.Prog, faultSeed, a.InjectionLog, b.InjectionLog)
	}
	return nil
}
