// Command bench is the repository benchmark. It reaches the system from
// outside, through its public entry points: the campaign service's HTTP
// handler behind net/http/httptest, campaign.Runner.Run, and machine.Run.
// Each run sets up one workload several times, repeats rounds of the
// workload's fixed items for a fixed time, checks every answer, and prints
// every metric by name with its unit, ending with one JSON line:
//
//	bash bench/run.sh --workload check-litmus --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run instead reports per-layer metrics: half of it runs
// untraced under the CPU profiler, the other half records spans around the
// calls into each layer and writes them as Chrome trace-event JSON.
//
// -record and -compare keep and compare recordings; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"weakorder/internal/litmus"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	outDir   string // receives temporary files and the Chrome trace
	// corpus overrides check-litmus's programs (nil = litmus.Corpus()).
	corpus []*litmus.Test
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{setups: 15}
	fs.StringVar(&o.workload, "workload", "", "workload to run: check-litmus, check-mixed, fuzz-campaign, timed-closed, timed-open")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per run; the last round in progress completes")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for temporary files and the Chrome trace")
	record := fs.String("record", "", "record -runs child runs of -workload (or all) into this JSON file")
	runs := fs.Int("runs", minPairs, "runs per workload for -record, with seeds -seed, -seed+1, ...")
	commit := fs.String("commit", "unknown", "commit recorded by -record")
	compare := fs.Bool("compare", false, "compare two recordings: -compare PARENT.json CHANGE.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag != 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two recording files")
			return 2
		}
		if err := compareRecords(stdout, fs.Arg(0), fs.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case *record != "":
		if err := recordRuns(stderr, o, *record, *runs, *commit); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if _, ok := lookupWorkload(o.workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	res, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets up the workload o.setups times, keeps the last instance and
// measures it.
func measure(o *options, logw io.Writer) (*result, error) {
	def, _ := lookupWorkload(o.workload)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log := &errLog{w: logw}

	var inst instance
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		sub := filepath.Join(dir, fmt.Sprint("setup", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		runtime.GC() // so one set-up's garbage does not slow the next
		start := time.Now()
		if inst, err = def.setup(o, sub); err != nil {
			return nil, err
		}
		log.note(inst.warm())
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	res := &result{Metrics: make(map[string]metric)}
	d := time.Duration(o.seconds * float64(time.Second))
	runtime.GC()
	if !o.trace {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ph, err := runPhase(inst, d, nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		ph.addEndToEnd(res.Metrics, def, setupS, float64(after.TotalAlloc-before.TotalAlloc))
		log.count(ph)
	} else {
		profPath := filepath.Join(dir, "cpu.pprof")
		prof, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, err
		}
		plain, err := runPhase(inst, d/2, nil)
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := runPhase(inst, d/2, tr)
		if err != nil {
			return nil, err
		}
		spans := tr.finished()
		shares, err := selfShares(profPath)
		if err != nil {
			return nil, fmt.Errorf("reading the CPU profile: %w", err)
		}
		addLayers(res.Metrics, plain, traced, spans, shares)
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := writeChrome(path, spans); err != nil {
			return nil, err
		}
		log.count(plain)
		log.count(traced)
	}
	res.Attempted, res.Failed = log.attempted, log.failed
	res.Correct = log.failed == 0
	return res, nil
}

// errLog counts calls and reports the first failures.
type errLog struct {
	w                 io.Writer
	attempted, failed int
}

const maxLogged = 10

// note counts one call.
func (l *errLog) note(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.failed <= maxLogged {
			fmt.Fprintln(l.w, "bench: FAIL:", err)
		}
	}
}

// count adds a phase's calls.
func (l *errLog) count(ph *phase) {
	l.attempted += ph.calls - len(ph.errs)
	for _, err := range ph.errs {
		l.note(err)
	}
}

// phase is one measured stretch of rounds.
type phase struct {
	rounds    int
	roundWork float64
	walls     []float64         // concurrent rounds' wall times, s
	items     map[int][]float64 // each item's latencies, ms
	calls     int               // calls into the system
	cached    int               // replies answered from the cache
	lat       []float64         // every successful call, ms
	cold, hit []float64         // replies explored anew / answered from the cache, ms
	errs      []error           // failed calls
	elapsed   time.Duration
}

// runPhase runs whole rounds until d has passed.
func runPhase(inst instance, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{items: make(map[int][]float64)}
	start := time.Now()
	for ph.rounds == 0 || time.Since(start) < d {
		r, err := inst.round(tr)
		if err != nil {
			return nil, err
		}
		ph.rounds++
		ph.roundWork = r.work
		if r.wall > 0 {
			ph.walls = append(ph.walls, r.wall.Seconds())
		}
		for _, s := range r.samples {
			ph.calls++
			if s.err != nil {
				ph.errs = append(ph.errs, s.err)
				continue
			}
			l := ms(s.latency)
			ph.lat = append(ph.lat, l)
			if s.cached {
				ph.cached++
				ph.hit = append(ph.hit, l)
			} else {
				ph.cold = append(ph.cold, l)
			}
			if s.item >= 0 {
				ph.items[s.item] = append(ph.items[s.item], l)
			}
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

// itemMedians returns each item's median latency across the rounds, ms.
func (ph *phase) itemMedians() []float64 {
	var out []float64
	for _, lats := range ph.items {
		out = append(out, quantile(lats, 0.5))
	}
	return out
}

// roundSeconds is a round's typical time: its median wall time when the
// workload's calls overlap, else the sum of its items' median latencies.
func (ph *phase) roundSeconds(def workloadDef) float64 {
	if def.concurrent {
		return quantile(ph.walls, 0.5)
	}
	var sum float64
	for _, med := range ph.itemMedians() {
		sum += med / 1000
	}
	return sum
}

// addEndToEnd fills in the end-to-end metrics of an untraced phase.
func (ph *phase) addEndToEnd(m map[string]metric, def workloadDef, setupS []float64, allocBytes float64) {
	meds := ph.itemMedians()
	m["setup_s"] = metric{quantile(setupS, 0.5), "s"}
	m["work_per_s"] = metric{ph.roundWork / ph.roundSeconds(def), "1/s"}
	m["p50_ms"] = metric{quantile(meds, 0.5), "ms"}
	m["p90_ms"] = metric{quantile(meds, 0.9), "ms"}
	m["alloc_mb_per_op"] = metric{allocBytes / 1e6 / float64(max(ph.calls, 1)), "MB"}
}

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// quantile interpolates linearly between the closest ranks of xs (the
// "inclusive" method); it sorts xs in place and returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
