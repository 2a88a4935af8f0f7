package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"weakorder/internal/metrics"
)

// buildWosim compiles the command once per test binary into a temp dir.
func buildWosim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wosim")
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

// TestCheckStateBudgetExit pins the distinct error path: an SC trace check
// that exhausts -max-states must exit with status 2 (not the generic 1) and
// say so, because "too big to decide" is not "not sequentially consistent".
func TestCheckStateBudgetExit(t *testing.T) {
	bin := buildWosim(t)
	out, code := run(t, bin, "-workload", "prodcons", "-iters", "2", "-check", "-max-states", "1")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\noutput:\n%s", code, out)
	}
	if !strings.Contains(out, "state budget exhausted") {
		t.Fatalf("missing budget message in output:\n%s", out)
	}
	// The message carries the visited-state count at exhaustion, so retuning
	// -max-states needs no second run under -metrics.
	if !strings.Contains(out, "after 1 distinct states") {
		t.Fatalf("budget message does not report the state count:\n%s", out)
	}
}

// TestCheckExploreWorkers pins the parallel search plumbing: explicit widths
// and the auto width (0) must reach the same verdict as the serial default,
// and a negative width is a usage error.
func TestCheckExploreWorkers(t *testing.T) {
	bin := buildWosim(t)
	const verdict = "trace check: sequentially consistent"
	for _, w := range []string{"0", "1", "4"} {
		out, code := run(t, bin, "-workload", "prodcons", "-iters", "2", "-check", "-explore-workers", w)
		if code != 0 {
			t.Fatalf("-explore-workers=%s: exit code = %d\noutput:\n%s", w, code, out)
		}
		if !strings.Contains(out, verdict) {
			t.Fatalf("-explore-workers=%s: missing %q in output:\n%s", w, verdict, out)
		}
	}
	if out, code := run(t, bin, "-check", "-explore-workers", "-2"); code != 2 || !strings.Contains(out, "negative -explore-workers") {
		t.Fatalf("negative -explore-workers: exit code = %d, want 2, output:\n%s", code, out)
	}
}

// TestFlagValidationExitsTwo pins the up-front validation contract: a typo'd
// enum or a negative latency is rejected with status 2 and a message naming
// the flag, before any simulation output.
func TestFlagValidationExitsTwo(t *testing.T) {
	bin := buildWosim(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad workload", []string{"-workload", "nope"}, "unknown -workload"},
		{"bad policy", []string{"-policy", "tso"}, "unknown -policy"},
		{"bad spin", []string{"-spin", "busy"}, "unknown -spin"},
		{"negative netlat", []string{"-netlat", "-1"}, "negative -netlat"},
		{"negative jitter", []string{"-jitter", "-3"}, "negative -jitter"},
		{"zero procs", []string{"-procs", "0"}, "-procs"},
		{"bad fault rates", []string{"-faults", "-fault-rates", "drop=2"}, "invalid -fault-rates"},
		{"rates without faults", []string{"-fault-rates", "drop=0.1"}, "requires -faults"},
	}
	for _, c := range cases {
		out, code := run(t, bin, c.args...)
		if code != 2 {
			t.Errorf("%s: exit code = %d, want 2\noutput:\n%s", c.name, code, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.want, out)
		}
		if strings.Contains(out, "cycles") {
			t.Errorf("%s: simulation ran despite the usage error:\n%s", c.name, out)
		}
	}
}

// TestFaultInjectionReplays runs the same faulty simulation twice and asserts
// the output — cycle counts, injection summary, final memory — is identical:
// the -fault-seed contract.
func TestFaultInjectionReplays(t *testing.T) {
	bin := buildWosim(t)
	args := []string{"-workload", "fig3", "-procs", "3", "-work", "10",
		"-faults", "-fault-seed", "7", "-fault-rates", "drop=0.05,dup=0.05,delay=0.08,reorder=0.03,maxdelay=12"}
	out1, code1 := run(t, bin, args...)
	out2, code2 := run(t, bin, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes = %d, %d\noutput:\n%s", code1, code2, out1)
	}
	if out1 != out2 {
		t.Fatalf("faulty runs with the same seed diverged:\n--- first ---\n%s--- second ---\n%s", out1, out2)
	}
	if !strings.Contains(out1, "faults: seed=7") {
		t.Fatalf("missing injection summary:\n%s", out1)
	}
}

// TestMetricsAndTimelineFlags exercises the observability surface end to end:
// -metrics prints the attribution tables, -timeline writes a trace file that
// validates, and the combination is byte-deterministic across reruns.
func TestMetricsAndTimelineFlags(t *testing.T) {
	bin := buildWosim(t)
	tl1 := filepath.Join(t.TempDir(), "a.json")
	tl2 := filepath.Join(t.TempDir(), "b.json")
	args := func(tl string) []string {
		return []string{"-workload", "fig3", "-procs", "3", "-work", "15",
			"-jitter", "2", "-metrics", "-timeline", tl}
	}
	out1, code1 := run(t, bin, args(tl1)...)
	out2, code2 := run(t, bin, args(tl2)...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes = %d, %d\noutput:\n%s", code1, code2, out1)
	}
	for _, want := range []string{
		"cycle attribution", "compute", "idle",
		"fabric traffic", "reserve-bit occupancy", "directory occupancy",
		"timeline written to",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out1)
		}
	}
	// The two runs name different output files; everything else must match.
	strip := func(out string) string {
		var kept []string
		for _, l := range strings.Split(out, "\n") {
			if !strings.HasPrefix(l, "timeline written to") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(out1) != strip(out2) {
		t.Fatalf("-metrics output diverged between identical runs:\n--- first ---\n%s--- second ---\n%s", out1, out2)
	}
	d1, err := os.ReadFile(tl1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(tl2)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Fatal("timeline files diverged between identical runs")
	}
	if err := metrics.ValidateTimeline(d1); err != nil {
		t.Fatalf("written timeline invalid: %v", err)
	}
	if n := metrics.EventCount(d1); n == 0 {
		t.Fatal("timeline holds no events")
	}
	// Without the flags the run must not mention the recorder at all.
	plain, code := run(t, bin, "-workload", "fig3", "-procs", "3", "-work", "15")
	if code != 0 || strings.Contains(plain, "cycle attribution") {
		t.Fatalf("metrics output leaked into a plain run (code %d):\n%s", code, plain)
	}
}
