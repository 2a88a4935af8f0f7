package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// quickCorpus is the litmus corpus without the program whose budget
// exhaustion alone takes seconds.
func quickCorpus() []*litmus.Test {
	var out []*litmus.Test
	for _, tc := range litmus.Corpus() {
		if tc.Name != budgetSkipAllowed {
			out = append(out, tc)
		}
	}
	return out
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Errorf("BENCHMARK.json workloads %v, program defines %v", names, defined)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := range min(len(b.EndToEnd), len(endToEnd)) {
		if got, want := b.EndToEnd[i], endToEnd[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i := range min(len(b.PerLayer), len(layerMetrics)) {
		if got, want := b.PerLayer[i], layerMetrics[i]; got.Name != want.name || got.Unit != want.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, got.Name, got.Unit, want.name, want.unit)
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, set up once
// and measured for a single round, and checks that it reports every metric
// BENCHMARK.json names with its unit and passes its correctness gate.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{workload: w.name, seed: 1, seconds: 0.001, trace: traced, setups: 1, outDir: t.TempDir()}
			if w.name == "check-litmus" {
				o.corpus = quickCorpus()
			}
			var log bytes.Buffer
			res, err := measure(o, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no metric %s", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestRunPrintsEveryMetric checks the command's output: one line per metric
// with its unit, then the JSON result as the last line.
func TestRunPrintsEveryMetric(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "timed-closed", "--seed", "2", "--seconds", "0.001", "--trace", "0",
		"--out", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	for _, m := range endToEnd {
		found := false
		for _, l := range lines[:len(lines)-1] {
			f := strings.Fields(l)
			found = found || (len(f) == 3 && f[0] == m.name && f[2] == m.unit)
		}
		if !found {
			t.Errorf("no output line for %s [%s]", m.name, m.unit)
		}
	}
}

// TestTracedDecompositionMatchesChecker pins the traced verdict path to
// fuzz.Checker.Check on the litmus corpus with the service's explorer
// settings.
func TestTracedDecompositionMatchesChecker(t *testing.T) {
	x := *fuzz.DefaultExplorer()
	x.Workers = -1
	machines := litmus.WeaklyOrderedFactories()
	for _, tc := range quickCorpus() {
		cx := x
		rep, err := (&fuzz.Checker{Explorer: &cx, Machines: machines}).Check(tc.Prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		tr := newTracer()
		vs := tr.start("verdict", 1, 0)
		got, err := shadowVerdict(vs, tc.Prog, machines, x, false)
		vs.finish()
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if got.DRF0 != rep.DRF0 || got.SCOutcomes != rep.SCOutcomes || got.RacyNonSC != rep.RacyNonSC() ||
			!slices.Equal(got.Violating, rep.Violating()) {
			t.Errorf("%s: composed %+v, Checker %+v", tc.Name, got, rep)
		}
		agg := aggregate(tr.finished())
		if agg["core.drf0"].count != 1 || agg["model.sc"].count != 1 || agg["model.machine"].count != len(machines) {
			t.Errorf("%s: spans drf0=%d sc=%d machine=%d, want 1, 1, %d", tc.Name,
				agg["core.drf0"].count, agg["model.sc"].count, agg["model.machine"].count, len(machines))
		}
	}
}

// TestTracedTimedRunsMatchUntraced checks that a traced machine.Run, with
// the machine's metrics on, gives the same result fingerprint as the
// untraced run before it (the instance fails the run otherwise).
func TestTracedTimedRunsMatchUntraced(t *testing.T) {
	for _, name := range []string{"timed-closed", "timed-open"} {
		def, _ := lookupWorkload(name)
		inst, err := def.setup(&options{workload: name, seed: 3}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			r, err := inst.round(tr)
			if err == nil {
				err = r.samples[0].err
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, tr != nil, err)
			}
			if tr == nil {
				continue
			}
			if run := aggregate(tr.finished())["machine.run"]; run == nil || run.args["messages"] == 0 || run.args["cycles.compute"] == 0 {
				t.Errorf("%s: traced run recorded no machine counters", name)
			}
		}
	}
}

// TestCampaignSkipsAtCap pins how many of a fuzz-campaign round's seeds the
// state cap turns into budget skips; README.md reports the share. At the
// 400 000-state default, none of them is skipped.
func TestCampaignSkipsAtCap(t *testing.T) {
	def, _ := lookupWorkload("fuzz-campaign")
	inst, err := def.setup(&options{workload: def.name, seed: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for k := 0; k < campaignCount; k++ {
		rep, _, err := inst.(*fuzzCampaign).run(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		skipped += rep.Skipped
	}
	if want := 11; skipped != want {
		t.Errorf("%d of %d seeds skipped at MaxStates %d, want %d", skipped, campaignCount*campaignSeeds, campaignMaxStates, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}
	// Every change run beats every parent run, but the medians differ by
	// less than the parent's interquartile range (0.75).
	spread := []float64{1, 2, 5, 5, 5, 5, 5, 5, 5, 5}
	above := []float64{5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1, 5.1}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"lower latency wins every pair", parent, faster, false, 0.05, "better"},
		{"lower throughput beyond bound", parent, faster, true, 0.05, "worse"},
		{"lower throughput within bound", parent, faster, true, 0.2, "unresolved"},
		{"unchanged", parent, parent, false, 0.05, "unresolved"},
		{"per-layer count falls every pair", parent, faster, true, 0, "worse"},
		{"median gap within the parent's spread", spread, above, true, 0.25, "unresolved"},
		{"nine pairs", parent[:9], faster[:9], false, 0.05, "unresolved"},
		{"nine pairs beyond bound", parent[:9], faster[:9], true, 0.05, "unresolved"},
	} {
		if got := verdict(tc.parent, tc.change, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		data, err := json.Marshal(recording{GOMAXPROCS: procs, CPU: "cpu"})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 2), write("b.json", 8)
	var out bytes.Buffer
	if err := compareRecords(&out, a, a, "../BENCHMARK.json"); err != nil {
		t.Errorf("same host: %v", err)
	}
	if err := compareRecords(&out, a, b, "../BENCHMARK.json"); err == nil {
		t.Error("compared recordings taken at GOMAXPROCS 2 and 8")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := &span{id: 1, start: 0, end: ms(10)}
	spans := []*span{
		parent,
		{id: 2, parent: 1, start: ms(1), end: ms(4)},
		{id: 3, parent: 1, start: ms(3), end: ms(6)},  // overlaps its sibling
		{id: 4, parent: 1, start: ms(9), end: ms(12)}, // runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != ms(10-5-1) || self[2] != ms(3) || self[4] != ms(3) {
		t.Errorf("self times %v", self)
	}
}

var burnSink int

// TestSelfShares profiles a loop in this package and checks that the shares
// read back through go tool pprof cover the whole profile.
func TestSelfShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			burnSink += i * i
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := selfShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pct := range shares {
		sum += pct
	}
	if sum < 99 || sum > 101 || shares["other"] < 50 {
		t.Errorf("shares %v sum to %.2f%%, want 100%% with most in other (this package)", shares, sum)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"weakorder/internal/sim.(*Engine).Run":                  "sim",
		"weakorder/internal/workload/openloop.(*Compiled).Next": "openloop",
		"weakorder/internal/par.Map[go.shape.struct {}].func1":  "other",
		"runtime.mallocgc":                                             "go_runtime",
		"internal/runtime/maps.(*Map).getWithKey":                      "go_runtime",
		"encoding/json.(*decodeState).object":                          "http_json",
		"net/http.(*conn).serve":                                       "http_json",
		"weakorder/internal/explore.(*Explorer).Run.func2":             "explore",
		"weakorder/internal/model.(*machineSystem).AppendKey":          "model",
		"weakorder/internal/campaign.FuzzVerdict":                      "campaign",
		"weakorder/internal/cache.(*Cache).TryReadHit[...]":            "cache",
		"weakorder/internal/programx.F":                                "other",
		"sync.(*Mutex).Lock":                                           "other",
		"weakorder/internal/interconnect.(*Network).Send":              "interconnect",
		"weakorder/internal/fuzz.Minimize":                             "fuzz",
		"weakorder/internal/core.CheckExecution":                       "core",
		"weakorder/internal/digest.Sum128":                             "digest",
		"weakorder/internal/machine.Run":                               "machine",
		"weakorder/internal/proc.(*Processor).step":                    "proc",
		"weakorder/internal/program.(*Builder).Build":                  "program",
		"weakorder/internal/campaign.(*Server).handleCheck.deferwrap1": "campaign",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %s, want %s", fn, got, want)
		}
	}
}
