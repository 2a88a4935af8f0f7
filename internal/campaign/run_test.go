package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// runToCompletion runs a spec uninterrupted and returns its report bytes.
func runToCompletion(t *testing.T, spec Spec, workers int) []byte {
	t.Helper()
	r := &Runner{Spec: spec, Workers: workers}
	rep, _, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResumeByteEquivalence is the acceptance property of the checkpoint
// system: a campaign killed at several different seed offsets and resumed —
// possibly repeatedly, and at different pool widths — produces a final JSON
// report byte-identical to an uninterrupted run's.
func TestResumeByteEquivalence(t *testing.T) {
	spec := Spec{Seeds: 9, BaseSeed: 1, Machines: "tso"}
	want := runToCompletion(t, spec, 1)
	if other := runToCompletion(t, spec, runtime.GOMAXPROCS(0)); string(other) != string(want) {
		t.Fatalf("pool width changed the uninterrupted report")
	}

	for _, stopAfter := range []int{1, 4, 8} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("stop=%d/workers=%d", stopAfter, workers), func(t *testing.T) {
				dir := t.TempDir()
				// Leg 1: killed after stopAfter seeds.
				r1 := &Runner{Spec: spec, CheckpointDir: dir, CheckpointEvery: 2,
					StopAfter: stopAfter, Workers: workers}
				rep, _, err := r1.Run(context.Background())
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("err = %v, want ErrInterrupted", err)
				}
				if len(rep.Programs) != stopAfter {
					t.Fatalf("partial report has %d programs, want %d", len(rep.Programs), stopAfter)
				}
				// The partial report is internally consistent.
				if rep.Checked+rep.Skipped != len(rep.Programs) {
					t.Fatalf("partial report inconsistent: checked %d + skipped %d != %d programs",
						rep.Checked, rep.Skipped, len(rep.Programs))
				}
				// Leg 2: resume to completion.
				r2 := &Runner{Spec: spec, CheckpointDir: dir, Resume: true,
					CheckpointEvery: 2, Workers: workers}
				final, _, err := r2.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got, err := MarshalReport(final)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("resumed report != uninterrupted report\nresumed:\n%s\nuninterrupted:\n%s", got, want)
				}
			})
		}
	}
}

// TestChaosResumeByteEquivalence pins the same property for the chaos
// campaign mode, whose verdicts additionally depend on the fault schedule.
func TestChaosResumeByteEquivalence(t *testing.T) {
	spec := Spec{Mode: ModeChaos, Seeds: 6, BaseSeed: 1, FaultSeed: 3}
	want := runToCompletion(t, spec, 1)

	dir := t.TempDir()
	r1 := &Runner{Spec: spec, CheckpointDir: dir, CheckpointEvery: 2, StopAfter: 3}
	if _, _, err := r1.Run(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	r2 := &Runner{Spec: spec, CheckpointDir: dir, Resume: true, CheckpointEvery: 2}
	final, _, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := MarshalReport(final)
	if string(got) != string(want) {
		t.Fatalf("resumed chaos report != uninterrupted report\nresumed:\n%s\nuninterrupted:\n%s", got, want)
	}
	if final.Faults == 0 {
		t.Fatalf("chaos campaign injected no faults; the schedule is not exercising anything")
	}
}

// TestCacheAnswersSecondCampaign pins the cache round trip at the Runner
// level: a second identical campaign sharing the store is fully answered
// from it (zero exploration), with a byte-identical report — and a campaign
// under a different spec shares nothing.
func TestCacheAnswersSecondCampaign(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "cache.wocs"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	spec := Spec{Seeds: 6, BaseSeed: 1, Machines: "tso"}
	first := &Runner{Spec: spec, Store: store}
	rep1, sum1, err := first.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum1.CacheHits != 0 || sum1.Explored == 0 {
		t.Fatalf("first run: hits=%d explored=%d, want 0 hits and some exploration", sum1.CacheHits, sum1.Explored)
	}
	second := &Runner{Spec: spec, Store: store}
	rep2, sum2, err := second.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int(sum2.CacheHits) != spec.Seeds || sum2.Explored != 0 {
		t.Fatalf("second run: hits=%d explored=%d, want %d hits and zero exploration",
			sum2.CacheHits, sum2.Explored, spec.Seeds)
	}
	a, _ := MarshalReport(rep1)
	b, _ := MarshalReport(rep2)
	if string(a) != string(b) {
		t.Fatalf("cache-answered report diverged from computed report")
	}

	// A different base seed shares no entries.
	other := &Runner{Spec: Spec{Seeds: 3, BaseSeed: 100, Machines: "tso"}, Store: store}
	if _, sum3, err := other.Run(context.Background()); err != nil {
		t.Fatal(err)
	} else if sum3.CacheHits != 0 {
		t.Fatalf("different campaign hit the cache %d times", sum3.CacheHits)
	}
}

// TestCheckpointGuards pins the two refusal paths: a fresh campaign must not
// clobber an existing checkpoint, and a resume must not continue under a
// different spec.
func TestCheckpointGuards(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Seeds: 4, BaseSeed: 1, Machines: "tso"}
	r := &Runner{Spec: spec, CheckpointDir: dir, CheckpointEvery: 2, StopAfter: 2}
	if _, _, err := r.Run(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	fresh := &Runner{Spec: spec, CheckpointDir: dir}
	if _, _, err := fresh.Run(context.Background()); err == nil {
		t.Fatalf("fresh campaign silently overwrote an existing checkpoint")
	}

	changed := spec
	changed.Seeds = 8
	mismatch := &Runner{Spec: changed, CheckpointDir: dir, Resume: true}
	if _, _, err := mismatch.Run(context.Background()); err == nil {
		t.Fatalf("resume accepted a different spec")
	}

	empty := &Runner{Spec: spec, CheckpointDir: t.TempDir(), Resume: true}
	if _, _, err := empty.Run(context.Background()); err == nil {
		t.Fatalf("resume without a checkpoint succeeded")
	}
}

// TestCheckpointDirStaysClean pins that checkpoint writes are atomic: after
// many snapshot rewrites the directory holds exactly one complete, parseable
// checkpoint — no *.tmp* leftovers accumulate.
func TestCheckpointDirStaysClean(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Seeds: 6, BaseSeed: 1, Machines: "tso"}
	r := &Runner{Spec: spec, CheckpointDir: dir, CheckpointEvery: 1, StopAfter: 5}
	if _, _, err := r.Run(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != CheckpointFile {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint dir holds %v, want exactly [%s]", names, CheckpointFile)
	}
	cp, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Next != 5 {
		t.Fatalf("checkpoint next = %d, want 5", cp.Next)
	}
}

// TestMinimizedReproducersDeterministicAcrossResume runs the known-broken
// fixtures with minimization on: the campaign finds violations, and the
// reproducer files an interrupted+resumed campaign writes are byte-identical
// to an uninterrupted campaign's.
func TestMinimizedReproducersDeterministicAcrossResume(t *testing.T) {
	// Seeds chosen to include i%7==6 (the guarded-mp shape that trips the
	// reserve-bit ablation) so at least one violation minimizes.
	spec := Spec{Seeds: 7, BaseSeed: 1, Machines: "broken", Minimize: true}

	outA := t.TempDir()
	a := &Runner{Spec: spec, Out: outA}
	repA, _, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if repA.Violations == 0 {
		t.Fatalf("broken machines produced no violations; reproducer path untested")
	}

	outB := t.TempDir()
	dir := t.TempDir()
	b1 := &Runner{Spec: spec, Out: outB, CheckpointDir: dir, CheckpointEvery: 2, StopAfter: 5}
	if _, _, err := b1.Run(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	b2 := &Runner{Spec: spec, Out: outB, CheckpointDir: dir, Resume: true, CheckpointEvery: 2}
	repB, _, err := b2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ra, _ := MarshalReport(repA)
	rb, _ := MarshalReport(repB)
	if string(ra) != string(rb) {
		t.Fatalf("resumed report != uninterrupted report with minimization on")
	}
	filesA, err := os.ReadDir(outA)
	if err != nil {
		t.Fatal(err)
	}
	if len(filesA) == 0 {
		t.Fatalf("no reproducer files written")
	}
	for _, f := range filesA {
		wantData, err := os.ReadFile(filepath.Join(outA, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotData, err := os.ReadFile(filepath.Join(outB, f.Name()))
		if err != nil {
			t.Fatalf("resumed campaign missing reproducer %s: %v", f.Name(), err)
		}
		if string(gotData) != string(wantData) {
			t.Fatalf("reproducer %s differs across resume", f.Name())
		}
	}
}

// extraOutcomes is the oracle of a reproducer header's non-SC outcome list:
// the result keys machine f produces on p outside the SC set, from separate
// explorations of SC and of f, sorted; nil on error.
func extraOutcomes(p *program.Program, f litmus.Factory, x *model.Explorer) []string {
	scOut, _, err := x.Outcomes(model.NewSC(p))
	if err != nil {
		return nil
	}
	hwOut, _, err := x.Outcomes(f.New(p))
	if err != nil {
		return nil
	}
	var out []string
	for k := range hwOut {
		if _, ok := scOut[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// TestReproducerHeaderNonSCOutcomes checks the "non-SC outcomes" line of
// every reproducer a minimizing campaign on the broken fixtures writes: it
// must list the oracle's keys for the minimized program on its machine, and
// at least one, since the reproducer witnesses a violation.
func TestReproducerHeaderNonSCOutcomes(t *testing.T) {
	spec := Spec{Seeds: 7, BaseSeed: 1, Machines: "broken", Minimize: true}
	rep, _, err := (&Runner{Spec: spec}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	x := fuzz.DefaultExplorer()
	n := 0
	for i, sr := range rep.Programs {
		_, p := ProgramFor(spec.BaseSeed, i)
		for _, name := range sr.Violating {
			f, ok := litmus.FactoryByName(name)
			if !ok {
				t.Fatalf("%s: unknown violating machine %q", sr.Name, name)
			}
			want := extraOutcomes(fuzz.Minimize(p, f, x), f, x)
			if len(want) == 0 {
				t.Errorf("%s on %s: the oracle finds no non-SC outcome", sr.Name, name)
			}
			const prefix = "# non-SC outcomes: "
			var got string
			for _, line := range strings.Split(sr.Reproducers[name], "\n") {
				if strings.HasPrefix(line, prefix) {
					got = line
				}
			}
			if wantLine := prefix + fmt.Sprint(want); got != wantLine {
				t.Errorf("%s on %s: header line %q, want %q", sr.Name, name, got, wantLine)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("broken machines produced no reproducers; the header is untested")
	}
	t.Logf("%d reproducer headers checked", n)
}
