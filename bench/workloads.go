package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"weakorder/internal/campaign"
	"weakorder/internal/digest"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/metrics"
	"weakorder/internal/model"
	"weakorder/internal/proc"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/workload"
	"weakorder/internal/workload/openloop"
	"weakorder/internal/workload/spec"
	"weakorder/internal/workload/tracefmt"
)

// Every workload repeats rounds over a fixed set of items (programs,
// campaigns or machine runs); the seed orders and schedules a round's
// items. Repeating the same items lets the metrics use each item's median
// time across rounds, so a round's work is the same at every seed and a
// few calls slowed by another tenant of a shared host move the metrics
// little.

// sample is one timed call into the system.
type sample struct {
	item    int           // the round item the call served; -1 for a cached repeat
	latency time.Duration // host time of the call
	cached  bool          // a /v1/check reply answered from the result cache
	err     error         // the call failed or its answer was wrong
}

// roundResult is one round's calls.
type roundResult struct {
	work    float64       // throughput units completed (README.md names each workload's)
	wall    time.Duration // the round's wall time, for concurrent workloads
	samples []sample
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// warm performs the untimed warm-up call that ends set-up.
	warm() error
	// round runs one round. A non-nil tr records spans around the calls it
	// makes into the system. An error aborts the run; a wrong answer is
	// reported in its sample instead.
	round(tr *tracer) (roundResult, error)
	close() error
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	// concurrent workloads overlap their calls, so a round's time is its
	// median wall time rather than the sum of its items' median latencies.
	concurrent bool
	setup      func(o *options, dir string) (instance, error)
}

// workloads are the benchmark's workloads; README.md records why each was
// chosen and which layer metrics it should move.
var workloads = []workloadDef{
	{"check-litmus", false, setupCheckLitmus},
	{"check-mixed", true, setupCheckMixed},
	{"fuzz-campaign", false, setupFuzzCampaign},
	{"timed-closed", false, setupTimedClosed},
	{"timed-open", false, setupTimedOpen},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fingerprints pins the deterministic results every run must reproduce.
//
//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

type fingerprint struct {
	ReportSHA256 string `json:"report_sha256,omitempty"`
	Cycles       int64  `json:"cycles,omitempty"`
	Messages     uint64 `json:"messages,omitempty"`
	Delivered    int64  `json:"delivered,omitempty"`
}

// pinned returns a workload's pinned fingerprint.
func pinned(name string) (fingerprint, error) {
	var all map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return fingerprint{}, fmt.Errorf("testdata/fingerprints.json: %w", err)
	}
	fp, ok := all[name]
	if !ok {
		return fingerprint{}, fmt.Errorf("testdata/fingerprints.json has no %s entry", name)
	}
	return fp, nil
}

// checkFingerprint compares a run's fingerprint with the one every run of
// the instance must repeat: the pinned one when pin is set, otherwise the
// instance's first run.
func checkFingerprint(want **fingerprint, name string, pin bool, got fingerprint) error {
	if *want == nil {
		if !pin {
			*want = &got
			return nil
		}
		fp, err := pinned(name)
		if err != nil {
			return err
		}
		*want = &fp
	}
	if got != **want {
		return fmt.Errorf("%s fingerprint %+v, want %+v", name, got, **want)
	}
	return nil
}

// checkService is the campaign service's /v1/check endpoint, reached over
// HTTP through campaign.NewServer(...).Handler() behind httptest.
type checkService struct {
	store  *campaign.Store // the service's result cache; nil when off
	shadow *campaign.Store // the benchmark's own store, for traced Get/Put
	srv    *campaign.Server
	ts     *httptest.Server

	// The verdict settings /v1/check uses for machines "weak".
	machines []litmus.Factory
	opts     campaign.Options
	xt       model.Explorer
}

func newCheckService(dir string, cache bool) (*checkService, error) {
	s := &checkService{}
	if cache {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if s.store, err = campaign.OpenStore(filepath.Join(dir, "cache.wocs")); err != nil {
			return nil, err
		}
		if s.shadow, err = campaign.OpenStore(filepath.Join(dir, "shadow.wocs")); err != nil {
			s.store.Close()
			return nil, err
		}
	}
	s.srv = campaign.NewServer(s.store, filepath.Join(dir, "campaigns"))
	s.ts = httptest.NewServer(s.srv.Handler())
	s.machines = litmus.WeaklyOrderedFactories()
	s.xt = *fuzz.DefaultExplorer()
	s.xt.Workers = -1
	for _, f := range s.machines {
		s.opts.Machines = append(s.opts.Machines, f.Name)
	}
	s.opts.MaxStates, s.opts.MaxTraceOps = s.xt.MaxStates, s.xt.MaxTraceOps
	return s, nil
}

// checkCase is one program ready to post: the request body and the program
// the service will parse from it.
type checkCase struct {
	name string
	body []byte
	prog *program.Program
}

func newCheckCase(p *program.Program) (checkCase, error) {
	text := fuzz.EmitLitmus(p)
	parsed, err := program.Parse(text)
	if err != nil {
		return checkCase{}, fmt.Errorf("re-parsing %s: %w", p.Name, err)
	}
	body, err := json.Marshal(campaign.CheckRequest{Litmus: text, Machines: "weak"})
	if err != nil {
		return checkCase{}, err
	}
	return checkCase{name: p.Name, body: body, prog: parsed.Program}, nil
}

// post sends one check request and times the round trip.
func (s *checkService) post(body []byte) (campaign.CheckResponse, time.Duration, error) {
	var resp campaign.CheckResponse
	start := time.Now()
	r, err := http.Post(s.ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, 0, err
	}
	data, err := io.ReadAll(r.Body)
	r.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return resp, 0, err
	}
	if r.StatusCode != http.StatusOK {
		return resp, 0, fmt.Errorf("POST /v1/check: %s: %s", r.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, 0, fmt.Errorf("decoding /v1/check reply: %w", err)
	}
	return resp, lat, nil
}

// traceVerdict is the traced shadow of a cold request: the verdict composed
// from the layers' public functions, with the shadow store's Get and Put
// around it when the service caches, compared with the service's reply.
func (s *checkService) traceVerdict(req *span, c checkCase, resp campaign.CheckResponse) error {
	vs := req.child("verdict")
	var key digest.Sum
	if s.shadow != nil {
		key = campaign.Key(c.prog, s.opts)
		g := vs.child("campaign.store_get")
		s.shadow.Get(key)
		g.finish()
	}
	v, err := shadowVerdict(vs, c.prog, s.machines, s.xt, false)
	if err == nil && s.shadow != nil {
		var data []byte
		if data, err = json.Marshal(&v); err == nil {
			p := vs.child("campaign.store_put")
			err = s.shadow.Put(key, data)
			p.finish()
		}
	}
	vs.finish()
	if err != nil {
		return fmt.Errorf("%s: traced verdict: %w", c.name, err)
	}
	if err := sameVerdict(v, replyVerdict(resp)); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// traceCachedGet is the traced shadow of a cached request: one Get on the
// shadow store, the lookup the service makes before answering.
func (s *checkService) traceCachedGet(req *span, c checkCase) {
	key := campaign.Key(c.prog, s.opts)
	g := req.child("campaign.store_get")
	s.shadow.Get(key)
	g.finish()
}

func replyVerdict(r campaign.CheckResponse) campaign.Verdict {
	return campaign.Verdict{DRF0: r.DRF0, Skipped: r.Skipped, SCOutcomes: r.SCOutcomes,
		RacyNonSC: r.RacyNonSC, Violating: r.Violating, States: r.States}
}

func (s *checkService) close() error {
	s.ts.Close()
	s.srv.Shutdown()
	var errs []error
	for _, st := range []*campaign.Store{s.store, s.shadow} {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}

// budgetSkipAllowed names the one corpus program whose DRF0 enumeration
// exhausts the 400 000-state budget.
const budgetSkipAllowed = "wrc-transitive-sync"

// checkLitmus posts the litmus corpus with the cache off; a round is one
// pass over the corpus in a seeded order.
type checkLitmus struct {
	svc   *checkService
	cases []checkCase
	drf0  []bool
	rng   *rand.Rand
	reqs  int64
}

func setupCheckLitmus(o *options, dir string) (instance, error) {
	corpus := o.corpus
	if corpus == nil {
		corpus = litmus.Corpus()
	}
	w := &checkLitmus{rng: rand.New(rand.NewSource(o.seed))}
	for _, t := range corpus {
		c, err := newCheckCase(t.Prog)
		if err != nil {
			return nil, err
		}
		w.cases = append(w.cases, c)
		w.drf0 = append(w.drf0, t.DRF0)
	}
	var err error
	w.svc, err = newCheckService(dir, false)
	return w, err
}

// warm posts the first corpus program.
func (w *checkLitmus) warm() error {
	resp, _, err := w.svc.post(w.cases[0].body)
	if err != nil {
		return err
	}
	return w.gate(0, resp)
}

func (w *checkLitmus) round(tr *tracer) (roundResult, error) {
	r := roundResult{work: float64(len(w.cases))}
	for _, i := range w.rng.Perm(len(w.cases)) {
		w.reqs++
		req := tr.start("request", w.reqs, 0)
		resp, lat, err := w.svc.post(w.cases[i].body)
		req.finish()
		if err == nil {
			err = w.gate(i, resp)
		}
		if err == nil && tr != nil {
			err = w.svc.traceVerdict(req, w.cases[i], resp)
		}
		r.samples = append(r.samples, sample{item: i, latency: lat, err: err})
	}
	return r, nil
}

// gate checks one reply: a decided verdict's DRF0 matches the corpus
// annotation, no weakly ordered machine violates, only the allowed program
// is skipped, and with the cache off every reply is freshly explored.
func (w *checkLitmus) gate(i int, r campaign.CheckResponse) error {
	name := w.cases[i].name
	switch {
	case r.Cached:
		return fmt.Errorf("%s: answered from a cache that is off", name)
	case r.Skipped && name != budgetSkipAllowed:
		return fmt.Errorf("%s: skipped on the state budget", name)
	case r.Skipped:
		return nil
	case r.DRF0 != w.drf0[i]:
		return fmt.Errorf("%s: DRF0 verdict %v, corpus says %v", name, r.DRF0, w.drf0[i])
	case len(r.Violating) > 0:
		return fmt.Errorf("%s: weakly ordered machines %v violate Definition 2", name, r.Violating)
	}
	return nil
}

func (w *checkLitmus) close() error { return w.svc.close() }

// Check-mixed shape: each round posts mixedPrograms generated programs
// (campaign.ProgramFor of stream mixedBase) to a service with a fresh result
// cache, from two clients.
const (
	mixedPrograms = 24
	mixedBase     = 1
)

// checkMixed posts generated programs from two clients with the cache on.
// In every block of four requests exactly one, at a seeded position, posts
// the round's next new program; the other three repeat a program whose
// first reply has returned.
type checkMixed struct {
	dir    string
	rng    *rand.Rand
	cases  []checkCase
	svc    *checkService
	rounds int
}

func setupCheckMixed(o *options, dir string) (instance, error) {
	w := &checkMixed{dir: dir, rng: rand.New(rand.NewSource(o.seed))}
	for i := 0; i < mixedPrograms; i++ {
		_, p := campaign.ProgramFor(mixedBase, i)
		c, err := newCheckCase(p)
		if err != nil {
			return nil, err
		}
		w.cases = append(w.cases, c)
	}
	return w, w.freshService()
}

// freshService replaces the service with one whose cache is empty.
func (w *checkMixed) freshService() error {
	if w.svc != nil {
		if err := w.svc.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(filepath.Join(w.dir, fmt.Sprint("r", w.rounds-1))); err != nil {
			return err
		}
	}
	var err error
	w.svc, err = newCheckService(filepath.Join(w.dir, fmt.Sprint("r", w.rounds)), true)
	w.rounds++
	return err
}

// warm posts the first program.
func (w *checkMixed) warm() error {
	resp, _, err := w.svc.post(w.cases[0].body)
	if err == nil && len(resp.Violating) > 0 {
		err = fmt.Errorf("%s: weakly ordered machines %v violate Definition 2", w.cases[0].name, resp.Violating)
	}
	return err
}

// mixedRound is the state the two clients of one round share.
type mixedRound struct {
	w        *checkMixed
	tr       *tracer
	coldPos  []int // per block of four, the position of its new program
	mu       sync.Mutex
	cond     *sync.Cond
	slot     int // next request slot
	next     int // next new program
	returned []int
	first    []campaign.CheckResponse // per program, set before it joins returned
	failed   bool                     // a new program's request failed
	samples  []sample
}

func (w *checkMixed) round(tr *tracer) (roundResult, error) {
	if err := w.freshService(); err != nil {
		return roundResult{}, err
	}
	m := &mixedRound{w: w, tr: tr, first: make([]campaign.CheckResponse, len(w.cases))}
	m.cond = sync.NewCond(&m.mu)
	for range w.cases {
		m.coldPos = append(m.coldPos, w.rng.Intn(4))
	}
	m.coldPos[0] = 0 // the round's first request has nothing to repeat
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m.request(c) {
			}
		}()
	}
	wg.Wait()
	return roundResult{work: float64(4 * len(w.cases)), wall: time.Since(start), samples: m.samples}, nil
}

// request makes client c's next request; it reports false when the round's
// requests are all taken.
func (m *mixedRound) request(c int) bool {
	m.mu.Lock()
	s := m.slot
	if s == 4*len(m.w.cases) {
		m.mu.Unlock()
		return false
	}
	m.slot++
	cold := s%4 == m.coldPos[s/4]
	i := m.next
	if cold {
		m.next++
	} else {
		for len(m.returned) == 0 && !m.failed {
			m.cond.Wait()
		}
		if len(m.returned) == 0 {
			m.samples = append(m.samples, sample{item: -1, err: errors.New("no program to repeat: every new program failed")})
			m.mu.Unlock()
			return true
		}
		i = m.returned[m.w.rng.Intn(len(m.returned))]
	}
	m.mu.Unlock()

	cc := m.w.cases[i]
	req := m.tr.start("request", int64(i), c)
	resp, lat, err := m.w.svc.post(cc.body)
	req.finish()
	smp := sample{item: i, latency: lat, cached: resp.Cached}
	if resp.Cached {
		smp.item = -1 // not an exploration of the program
	}
	switch {
	case err != nil:
	case len(resp.Violating) > 0:
		err = fmt.Errorf("%s: weakly ordered machines %v violate Definition 2", cc.name, resp.Violating)
	case cold && m.tr != nil && !resp.Cached:
		err = m.w.svc.traceVerdict(req, cc, resp)
	case !cold:
		if m.tr != nil {
			m.w.svc.traceCachedGet(req, cc)
		}
		m.mu.Lock()
		first := m.first[i]
		m.mu.Unlock()
		err = sameReply(cc.name, resp, first)
	}
	smp.err = err

	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, smp)
	if cold {
		if err == nil {
			m.first[i] = resp
			m.returned = append(m.returned, i)
		} else {
			m.failed = true
		}
		m.cond.Broadcast()
	}
	return true
}

// sameReply checks a repeated request: answered from the cache with no new
// exploration, and the same verdict as the program's first reply.
func sameReply(name string, got, first campaign.CheckResponse) error {
	if !got.Cached || got.ExploredNow != 0 {
		return fmt.Errorf("%s: repeat reply cached=%v explored_now=%d, want a cache hit with no exploration", name, got.Cached, got.ExploredNow)
	}
	got.Cached, got.ExploredNow = first.Cached, first.ExploredNow
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(first)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: cached reply %s differs from first reply %s", name, a, b)
	}
	return nil
}

func (w *checkMixed) close() error { return w.svc.close() }

// Fuzz-campaign shape: campaignCount small-budget campaigns against the
// weakly ordered and the broken machines, each one full cycle of
// campaign.ConfigFor's six generator configs plus the guarded
// producer/consumer program. The state cap ends a budget-exhausting seed
// within milliseconds, where the 400 000-state default spends seconds; it
// skips 11 of a round's 56 seeds, which the default decides (README.md).
const (
	campaignCount     = 8
	campaignSeeds     = 7
	campaignMaxStates = 2000
	campaignMachines  = "weak,broken"
)

// fuzzCampaign runs campaignCount campaign.Runner campaigns per round, in a
// seeded order, each with a fresh checkpoint directory.
type fuzzCampaign struct {
	dir      string
	rng      *rand.Rand
	runs     int
	machines []litmus.Factory
	broken   map[string]bool
	xt       model.Explorer
}

func setupFuzzCampaign(o *options, dir string) (instance, error) {
	machines, err := litmus.FactoriesByNames(campaignMachines)
	if err != nil {
		return nil, err
	}
	w := &fuzzCampaign{dir: dir, rng: rand.New(rand.NewSource(o.seed)), machines: machines,
		broken: make(map[string]bool), xt: *fuzz.DefaultExplorer()}
	w.xt.MaxStates = campaignMaxStates
	for _, f := range litmus.BrokenFactories() {
		w.broken[f.Name] = true
	}
	return w, nil
}

// warm runs campaign 0, whose report must hash to the pinned digest.
func (w *fuzzCampaign) warm() error {
	rep, _, err := w.run(0, nil)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	fp, err := pinned("fuzz-campaign")
	if err != nil {
		return err
	}
	if got := hex.EncodeToString(sum[:]); got != fp.ReportSHA256 {
		return fmt.Errorf("fuzz-campaign report sha256 %s, want %s", got, fp.ReportSHA256)
	}
	return nil
}

func (w *fuzzCampaign) round(tr *tracer) (roundResult, error) {
	r := roundResult{work: campaignCount * campaignSeeds}
	for _, k := range w.rng.Perm(campaignCount) {
		_, lat, err := w.run(k, tr)
		r.samples = append(r.samples, sample{item: k, latency: lat, err: err})
	}
	return r, nil
}

// run runs campaign k and checks its report.
func (w *fuzzCampaign) run(k int, tr *tracer) (*campaign.Report, time.Duration, error) {
	sp := campaign.Spec{Seeds: campaignSeeds, BaseSeed: int64(campaignSeeds * k),
		Machines: campaignMachines, Minimize: true, MaxStates: campaignMaxStates}
	cp := filepath.Join(w.dir, fmt.Sprint("c", w.runs))
	w.runs++
	rs := tr.start("campaign.run", int64(w.runs), 0)
	start := time.Now()
	rep, _, err := (&campaign.Runner{Spec: sp, CheckpointDir: cp}).Run(context.Background())
	lat := time.Since(start)
	rs.finish()
	if rmErr := os.RemoveAll(cp); err == nil {
		err = rmErr
	}
	if err != nil {
		return nil, lat, err
	}
	for i, sr := range rep.Programs {
		for _, m := range sr.Violating {
			if !w.broken[m] {
				return rep, lat, fmt.Errorf("%s: weakly ordered machine %s violates Definition 2", sr.Name, m)
			}
			if sr.Reproducers[m] == "" {
				return rep, lat, fmt.Errorf("%s: violation on %s has no reproducer", sr.Name, m)
			}
		}
		if tr == nil {
			continue
		}
		_, p := campaign.ProgramFor(sp.BaseSeed, i)
		vs := rs.child("verdict")
		v, err := shadowVerdict(vs, p, w.machines, w.xt, true)
		vs.finish()
		if err == nil {
			err = sameVerdict(v, campaign.Verdict{DRF0: sr.DRF0, Skipped: sr.Skipped, SCOutcomes: sr.SCOutcomes,
				RacyNonSC: sr.RacyNonSC, Violating: sr.Violating, Reproducers: sr.Reproducers})
		}
		if err != nil {
			return rep, lat, fmt.Errorf("%s: %w", sr.Name, err)
		}
	}
	return rep, lat, nil
}

func (w *fuzzCampaign) close() error { return nil }

// timedRun times one machine.Run and records the machine's public counters
// on the span. Metrics are on only when traced; they never change a result.
func timedRun(rs *span, prog *program.Program, cfg machine.Config) (*machine.Result, time.Duration, error) {
	cfg.Metrics = rs != nil
	start := time.Now()
	res, err := machine.Run(prog, cfg)
	lat := time.Since(start)
	if err != nil || rs == nil {
		return res, lat, err
	}
	sums := map[string]int64{
		"messages":         int64(res.Messages),
		"cache.dir_gets":   res.DirStats.Get("gets"),
		"cache.dir_getx":   res.DirStats.Get("getx"),
		"cache.dir_queued": res.DirStats.Get("queued_requests"),
	}
	for _, cs := range res.CacheStats {
		sums["cache.hits"] += cs.Get("hits")
		sums["cache.read_misses"] += cs.Get("read_misses")
		sums["cache.write_misses"] += cs.Get("write_misses")
	}
	for _, pc := range res.Metrics.Procs {
		for class, n := range pc.Cycles {
			sums["cycles."+metrics.Class(class).String()] += n
		}
	}
	for k, v := range sums {
		rs.set(k, float64(v))
	}
	return res, lat, nil
}

// timedClosed is the E13 capacity kernel at P=64: every processor contends
// for one lock. Without network jitter the run is the same at every seed,
// so its fingerprint is pinned for all of them.
type timedClosed struct {
	prog *program.Program
	cfg  machine.Config
	want *fingerprint
	runs int64
}

const closedProcs, closedAcquires = 64, 2

func setupTimedClosed(o *options, _ string) (instance, error) {
	cfg := machine.NewConfig(proc.PolicyWODef2)
	cfg.Seed = o.seed
	return &timedClosed{prog: workload.Lock(closedProcs, closedAcquires, 10, 10, workload.SpinSync), cfg: cfg}, nil
}

func (w *timedClosed) warm() error {
	_, err := w.round(nil)
	return err
}

func (w *timedClosed) round(tr *tracer) (roundResult, error) {
	w.runs++
	rs := tr.start("machine.run", w.runs, 0)
	res, lat, err := timedRun(rs, w.prog, w.cfg)
	rs.finish()
	if err != nil {
		return roundResult{}, err
	}
	if got, want := res.FinalMem[workload.CtrAddr()], workload.LockTotal(closedProcs, closedAcquires); got != want {
		err = fmt.Errorf("lock counter %d, want %d", got, want)
	} else {
		err = checkFingerprint(&w.want, "timed-closed", true, fingerprint{Cycles: int64(res.Cycles), Messages: res.Messages})
	}
	return roundResult{work: float64(res.Cycles), samples: []sample{{latency: lat, err: err}}}, nil
}

func (w *timedClosed) close() error { return nil }

// timedOpen drives the P=8 machine with a seeded four-phase open-loop spec:
// mix, then lock, barrier and prodcons at the saturation knees E14 finds
// (mix has no knee; rate 16 keeps it below saturation). Every round repeats
// the seed's arrival stream; at seed 1 its fingerprint is pinned.
type timedOpen struct {
	spec *spec.Spec
	prog *program.Program
	seed int64
	want *fingerprint
	runs int64
}

const openPhase sim.Time = 10_000

func setupTimedOpen(o *options, _ string) (instance, error) {
	s := &spec.Spec{SpecVersion: spec.Version, Name: "bench-open", Procs: 8, Phases: []spec.Phase{
		{Duration: openPhase, Rate: 16, Scenario: spec.ScenarioMix, Work: 10},
		{Duration: openPhase, Rate: 4, Scenario: spec.ScenarioLock, Work: 10},
		{Duration: openPhase, Rate: 4, Scenario: spec.ScenarioBarrier, Work: 10},
		{Duration: openPhase, Rate: 16, Scenario: spec.ScenarioProdCons, Work: 10},
	}}
	prog, err := openloop.Program(s)
	if err != nil {
		return nil, err
	}
	return &timedOpen{spec: s, prog: prog, seed: o.seed}, nil
}

func (w *timedOpen) warm() error {
	_, err := w.round(nil)
	return err
}

// countingSource counts the records a source delivers to the machine.
type countingSource struct {
	src openloop.Source
	n   int64
}

func (c *countingSource) Next(proc int) (tracefmt.Record, bool, error) {
	r, ok, err := c.src.Next(proc)
	if ok && err == nil {
		c.n++
	}
	return r, ok, err
}

func (w *timedOpen) round(tr *tracer) (roundResult, error) {
	w.runs++
	rs := tr.start("machine.run", w.runs, 0)
	start := time.Now()
	gen, err := openloop.NewGenerator(w.spec, w.seed)
	if err != nil {
		rs.finish()
		return roundResult{}, err
	}
	src := &countingSource{src: gen}
	cfg := machine.NewConfig(proc.PolicyWODef2)
	cfg.Workload = openloop.Compile(src)
	res, _, err := timedRun(rs, w.prog, cfg)
	lat := time.Since(start)
	rs.set("delivered", float64(src.n))
	rs.finish()
	if err != nil {
		return roundResult{}, err
	}
	err = checkFingerprint(&w.want, "timed-open", w.seed == 1,
		fingerprint{Cycles: int64(res.Cycles), Messages: res.Messages, Delivered: src.n})
	return roundResult{work: float64(src.n), samples: []sample{{latency: lat, err: err}}}, nil
}

func (w *timedOpen) close() error { return nil }
