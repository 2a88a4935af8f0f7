package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// recording is what -record writes: one record per workload, each from
// fresh child processes, plus the settings two recordings must share to be
// compared.
type recording struct {
	Commit      string        `json:"commit"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	CPU         string        `json:"cpu"`
	Seconds     float64       `json:"seconds"`
	NotMeasured string        `json:"not_measured"`
	Records     []*workRecord `json:"records"`
}

// workRecord is one workload's runs.
type workRecord struct {
	Workload string                  `json:"workload"`
	Seeds    []int64                 `json:"seeds"`
	Correct  bool                    `json:"correct"`
	Metrics  map[string]*metricStats `json:"metrics"`
}

// metricStats is one metric across a workload's runs, in seed order.
type metricStats struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// recordRuns runs each selected workload runs times, each in a fresh child
// process with seeds o.seed, o.seed+1, ..., and writes the recording. The
// workloads take turns, so each one's runs spread over the whole recording
// and its quartiles show how the host's speed drifted meanwhile.
func recordRuns(logw io.Writer, o *options, path string, runs int, commit string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs := workloads
	if o.workload != "all" {
		def, ok := lookupWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{def}
	}
	rec := &recording{Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Seconds: o.seconds, NotMeasured: notMeasured()}
	for _, def := range defs {
		rec.Records = append(rec.Records, &workRecord{Workload: def.name, Correct: true, Metrics: make(map[string]*metricStats)})
	}
	for i := 0; i < runs; i++ {
		seed := o.seed + int64(i)
		for _, wr := range rec.Records {
			wr.Seeds = append(wr.Seeds, seed)
			res, err := runChild(exe, logw, wr.Workload, seed, o)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wr.Workload, seed, err)
			}
			wr.Correct = wr.Correct && res.Correct
			for name, m := range res.Metrics {
				st := wr.Metrics[name]
				if st == nil {
					st = &metricStats{Unit: m.Unit}
					wr.Metrics[name] = st
				}
				st.Values = append(st.Values, m.Value)
			}
			fmt.Fprintf(logw, "bench: recorded %s seed %d\n", wr.Workload, seed)
		}
	}
	for _, wr := range rec.Records {
		for _, st := range wr.Metrics {
			st.N = len(st.Values)
			st.Q1, st.Median, st.Q3 = quartiles(st.Values)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one untraced measurement in a child process and reads the
// JSON line it prints last.
func runChild(exe string, logw io.Writer, workload string, seed int64, o *options) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-out", o.outDir, "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, logw
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return &res, nil
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// notMeasured names the widths of interest (1, 4 and 8) other than the one
// a recording ran at.
func notMeasured() string {
	var widths []string
	for _, w := range []int{1, 4, 8} {
		if w != runtime.GOMAXPROCS(0) {
			widths = append(widths, fmt.Sprint(w))
		}
	}
	return "GOMAXPROCS " + strings.Join(widths, ", ")
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) ("exclusive").
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareRecords prints a verdict for every workload and metric two
// recordings share: parent is the base commit, change the candidate.
func compareRecords(w io.Writer, parentPath, changePath, specPath string) error {
	var parent, change recording
	var spec benchmarkSpec
	for _, f := range []struct {
		path string
		into any
	}{{parentPath, &parent}, {changePath, &change}, {specPath, &spec}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if parent.GOMAXPROCS != change.GOMAXPROCS || parent.CPU != change.CPU {
		return fmt.Errorf("refusing to compare recordings from different hosts: GOMAXPROCS %d on %q vs GOMAXPROCS %d on %q",
			parent.GOMAXPROCS, parent.CPU, change.GOMAXPROCS, change.CPU)
	}
	higher := make(map[string]bool)
	bound := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		higher[m.Name], bound[m.Name] = m.Better == "higher", m.Bound
	}
	for _, m := range spec.PerLayer {
		higher[m.Name] = m.Better == "higher"
	}
	changed := make(map[string]*workRecord)
	for _, r := range change.Records {
		changed[r.Workload] = r
	}
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %8s  %s\n", "workload", "metric", "parent", "change", "delta", "verdict")
	for _, pr := range parent.Records {
		cr := changed[pr.Workload]
		if cr == nil {
			continue
		}
		names := make([]string, 0, len(pr.Metrics))
		for name := range pr.Metrics {
			if cr.Metrics[name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			pm, cm := pr.Metrics[name], cr.Metrics[name]
			delta := "-"
			if pm.Median != 0 {
				delta = fmt.Sprintf("%+.1f%%", (cm.Median/pm.Median-1)*100)
			}
			fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %8s  %s\n", pr.Workload, name, pm.Median, cm.Median, delta,
				verdict(pm.Values, cm.Values, higher[name], bound[name]))
		}
	}
	return nil
}

// minPairs is the fewest paired runs a verdict is drawn from.
const minPairs = 10

// verdict judges a change against its parent on one metric, from runs
// paired in seed order. With fewer than minPairs pairs it is "unresolved".
// "better": the change wins at least 9 of 10 pairs (ties count for neither)
// and the medians differ by more than the parent's interquartile range.
// "worse": with a bound, the change's median is worse by more than bound
// times the parent's median while the parent's spread is within the bound;
// without one, the mirror of "better". Anything else is "unresolved".
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	n := min(len(parent), len(change))
	if n < minPairs {
		return "unresolved"
	}
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	q1, medP, q3 := quartiles(parent)
	_, medC, _ := quartiles(change)
	iqr := q3 - q1
	gain := sign * (medC - medP)
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	switch {
	case 10*wins >= 9*n && gain > iqr:
		return "better"
	case bound > 0 && iqr <= bound*math.Abs(medP) && -gain > bound*math.Abs(medP):
		return "worse"
	case bound == 0 && 10*losses >= 9*n && -gain > iqr:
		return "worse"
	}
	return "unresolved"
}
