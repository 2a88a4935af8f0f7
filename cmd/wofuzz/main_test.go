package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildWofuzz(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wofuzz")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %s %v: %v\n%s", bin, args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestAllSkippedBudgetExit pins the distinct error path: when the state
// budget is so small that every program is skipped, the campaign decided
// nothing and must exit with status 2 (not 0, which would read as "no
// violations", and not the violation status 1).
func TestAllSkippedBudgetExit(t *testing.T) {
	bin := buildWofuzz(t)
	out, code := run(t, bin, "-seeds", "2", "-max-states", "1", "-minimize=false")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "state budget exhausted on every program") {
		t.Fatalf("missing budget message in output:\n%s", out)
	}
}

// TestMachinesFlag pins the -machines selection surface: the relaxed
// write-buffer machines resolve by name and run a campaign to completion,
// while an unknown name is rejected before any program is generated, with an
// error naming the offender.
func TestMachinesFlag(t *testing.T) {
	bin := buildWofuzz(t)
	out, code := run(t, bin, "-seeds", "3", "-minimize=false", "-machines", "tso,pso,rmo")
	if code != 0 {
		t.Fatalf("-machines tso,pso,rmo: exit code = %d\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "checked") {
		t.Fatalf("-machines tso,pso,rmo: campaign summary missing:\n%s", out)
	}
	out, code = run(t, bin, "-machines", "tso,no-such-machine")
	if code != 1 {
		t.Fatalf("unknown machine: exit code = %d, want 1\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, `unknown machine "no-such-machine"`) {
		t.Fatalf("unknown-machine error does not name the offender:\n%s", out)
	}
	if strings.Contains(out, "checked") {
		t.Fatalf("campaign ran despite the bad -machines value:\n%s", out)
	}
}

// TestSignalCheckpointResume kills a checkpointed campaign mid-run with
// SIGINT and pins the whole crash-safety contract: the process exits with the
// distinct interrupted status (3), the partial JSON report it flushed parses
// with internally consistent counts, and `wofuzz -resume` completes the
// campaign with a final report byte-identical to an uninterrupted run's.
func TestSignalCheckpointResume(t *testing.T) {
	bin := buildWofuzz(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	partialPath := filepath.Join(dir, "partial.json")
	finalPath := filepath.Join(dir, "final.json")
	baselinePath := filepath.Join(dir, "baseline.json")
	args := []string{"-seeds", "512", "-machines", "tso", "-minimize=false"}

	// Baseline: the same campaign, uninterrupted.
	if out, code := run(t, bin, append(args, "-json", baselinePath)...); code != 0 {
		t.Fatalf("baseline: exit code = %d\noutput:\n%s", code, out)
	}

	// Start the campaign, wait until the first checkpoint lands, then SIGINT.
	cmd := exec.Command(bin, append(args, "-checkpoint", ckpt, "-json", partialPath)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(ckpt, "checkpoint.json")
	for i := 0; ; i++ {
		if _, err := os.Stat(ckptFile); err == nil {
			break
		}
		if i > 1000 {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared\noutput:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("interrupted campaign: err = %v, want exit code 3\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "-resume") {
		t.Fatalf("interrupt message does not mention -resume:\n%s", out.String())
	}

	// The flushed partial report parses and is internally consistent.
	var partial struct {
		Seeds    int               `json:"seeds"`
		Checked  int               `json:"checked"`
		Skipped  int               `json:"skipped"`
		Programs []json.RawMessage `json:"programs"`
	}
	data, err := os.ReadFile(partialPath)
	if err != nil {
		t.Fatalf("no partial report: %v", err)
	}
	if err := json.Unmarshal(data, &partial); err != nil {
		t.Fatalf("partial report does not parse: %v", err)
	}
	if n := len(partial.Programs); n == 0 || n >= partial.Seeds {
		t.Fatalf("partial report has %d/%d programs; the kill did not land mid-run", n, partial.Seeds)
	}
	if partial.Checked+partial.Skipped != len(partial.Programs) {
		t.Fatalf("partial counts inconsistent: checked %d + skipped %d != %d programs",
			partial.Checked, partial.Skipped, len(partial.Programs))
	}

	// Resume completes the campaign; the final report is byte-identical.
	if out, code := run(t, bin, "-resume", ckpt, "-json", finalPath); code != 0 {
		t.Fatalf("resume: exit code = %d\noutput:\n%s", code, out)
	}
	baseline, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(finalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, baseline) {
		t.Fatalf("resumed report differs from uninterrupted report (%d vs %d bytes)", len(final), len(baseline))
	}
}

// TestCacheFlag pins the CLI cache round trip: a second identical campaign
// run against the same -cache file is answered without exploration, visible
// in the cache summary line.
func TestCacheFlag(t *testing.T) {
	bin := buildWofuzz(t)
	cache := filepath.Join(t.TempDir(), "cache.wocs")
	args := []string{"-seeds", "6", "-machines", "tso", "-minimize=false", "-cache", cache}
	out, code := run(t, bin, args...)
	if code != 0 {
		t.Fatalf("first run: exit code = %d\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "cache 0 hit(s)") {
		t.Fatalf("first run should start cold:\n%s", out)
	}
	out, code = run(t, bin, args...)
	if code != 0 {
		t.Fatalf("second run: exit code = %d\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "cache 6 hit(s)") || !strings.Contains(out, "0 state(s) explored") {
		t.Fatalf("second run was not answered from the cache:\n%s", out)
	}
}

// TestChaosMode runs a small chaos campaign end to end: it must complete with
// status 0, actually inject faults, and report the deterministic summary.
func TestChaosMode(t *testing.T) {
	bin := buildWofuzz(t)
	args := []string{"-chaos", "-seeds", "8", "-fault-seed", "3"}
	out, code := run(t, bin, args...)
	if code != 0 {
		t.Fatalf("exit code = %d\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "wofuzz chaos: 8 checked") {
		t.Fatalf("missing chaos summary:\n%s", out)
	}
	if strings.Contains(out, " 0 faults injected") {
		t.Fatalf("chaos campaign injected nothing:\n%s", out)
	}
	// Replay determinism: the summary (minus elapsed time) is identical.
	out2, _ := run(t, bin, args...)
	trim := func(s string) string {
		i := strings.Index(s, "wofuzz chaos:")
		j := strings.Index(s, " in ")
		if i < 0 || j < 0 {
			t.Fatalf("unexpected summary:\n%s", s)
		}
		return s[i:j]
	}
	if trim(out) != trim(out2) {
		t.Fatalf("chaos replay diverged:\n first: %s\nsecond: %s", trim(out), trim(out2))
	}
	if out, code := run(t, bin, "-chaos", "-seeds", "1", "-fault-rates", "drop=nope"); code != 1 || !strings.Contains(out, "bad probability") {
		t.Fatalf("invalid -fault-rates: exit code = %d, output:\n%s", code, out)
	}
}
