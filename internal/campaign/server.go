package campaign

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"weakorder/internal/explore"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/program"
)

// Server is the always-on campaign service: an HTTP/JSON front end over the
// Store and the Runner. It answers single-program submissions from the cache
// when it can, schedules campaign Specs in the background on the shared
// internal/par pool, streams per-seed progress as NDJSON, and — the always-on
// part — resumes every incomplete checkpointed campaign it finds in its
// directory at boot, so neither a server crash nor a restart loses work.
type Server struct {
	store *Store
	dir   string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	seq       int
	campaigns map[string]*campaignState
	order     []string
}

// campaignState tracks one background campaign.
type campaignState struct {
	id   string
	spec Spec

	mu     sync.Mutex
	cond   *sync.Cond
	events [][]byte // NDJSON lines, buffered for replay to late subscribers
	next   int      // seeds completed
	done   bool
	failed string // terminal error, "" on success/interrupt
	report *Report
	sum    Summary
}

// CampaignStatus is the JSON status of one campaign.
type CampaignStatus struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	Next  int    `json:"next"`
	Seeds int    `json:"seeds"`
	Done  bool   `json:"done"`
	Error string `json:"error,omitempty"`
	// Runtime counters (the report holds none of these).
	CacheHits int64   `json:"cache_hits"`
	Explored  int64   `json:"explored_states"`
	Report    *Report `json:"report,omitempty"`
}

// Event is one NDJSON progress line: a per-seed record while the campaign
// runs, then a final "done" (or "error") line.
type Event struct {
	Type   string `json:"type"` // "seed", "done", "error"
	ID     string `json:"id"`
	Index  int    `json:"index,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Name   string `json:"name,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// Seed outcome, mirroring the report entry's headline fields.
	DRF0      bool     `json:"drf0,omitempty"`
	Skipped   bool     `json:"skipped,omitempty"`
	Violating []string `json:"violating,omitempty"`
	Contained bool     `json:"contained,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// NewServer builds a service over store (may be nil for uncached operation)
// rooted at dir, which holds one checkpoint subdirectory per campaign.
func NewServer(store *Store, dir string) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		store:     store,
		dir:       dir,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*campaignState),
	}
}

// Recover scans the server directory for checkpointed campaigns and restarts
// every incomplete one in the background (completed ones are registered as
// done, their reports served from the checkpoint). It returns the ids it
// resumed. Call once, before serving.
func (s *Server) Recover() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var resumed []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		cp, err := LoadCheckpoint(filepath.Join(s.dir, id))
		if err != nil {
			continue // not a campaign directory (or unreadable); leave it alone
		}
		s.mu.Lock()
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n >= s.seq {
			s.seq = n + 1 // new ids never collide with recovered ones
		}
		st := s.register(id, cp.Spec)
		s.mu.Unlock()
		st.next = cp.Next
		st.sum = Summary{CacheHits: cp.CacheHits, Explored: cp.Explored}
		if cp.Next >= cp.Spec.Seeds {
			st.report = cp.Report
			st.done = true
			continue
		}
		s.launch(st, true)
		resumed = append(resumed, id)
	}
	sort.Strings(resumed)
	return resumed, nil
}

// Shutdown interrupts every running campaign (each checkpoints before
// exiting) and waits for them to stop.
func (s *Server) Shutdown() {
	s.cancel()
	s.wg.Wait()
}

// register adds a campaign to the tables; the caller holds s.mu.
func (s *Server) register(id string, spec Spec) *campaignState {
	st := &campaignState{id: id, spec: spec}
	st.cond = sync.NewCond(&st.mu)
	s.campaigns[id] = st
	s.order = append(s.order, id)
	return st
}

// launch runs a campaign in the background.
func (s *Server) launch(st *campaignState, resume bool) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r := &Runner{
			Spec:          st.spec,
			Store:         s.store,
			CheckpointDir: filepath.Join(s.dir, st.id),
			Resume:        resume,
			Progress: func(sr SeedReport, cached bool) {
				st.publish(Event{
					Type: "seed", ID: st.id, Index: sr.Index, Seed: sr.Seed,
					Name: sr.Name, Cached: cached, DRF0: sr.DRF0,
					Skipped: sr.Skipped, Violating: sr.Violating,
					Contained: sr.Contained,
				}, sr.Index+1)
			},
		}
		rep, sum, err := r.Run(s.ctx)
		st.mu.Lock()
		defer st.mu.Unlock()
		defer st.cond.Broadcast()
		switch {
		case err == nil:
			st.report = rep
			st.sum = *sum
			st.done = true
			st.appendEventLocked(Event{Type: "done", ID: st.id})
		case errors.Is(err, ErrInterrupted):
			// Shutdown path: checkpointed; a restart's Recover resumes it.
			// Not done, not failed — simply paused.
			st.sum = *sum
		default:
			st.failed = err.Error()
			st.done = true
			st.appendEventLocked(Event{Type: "error", ID: st.id, Error: err.Error()})
		}
	}()
}

// publish appends a progress event and advances the completed-seed count.
func (st *campaignState) publish(ev Event, next int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if next > st.next {
		st.next = next
	}
	st.appendEventLocked(ev)
}

func (st *campaignState) appendEventLocked(ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	st.events = append(st.events, append(line, '\n'))
	st.cond.Broadcast()
}

// status snapshots the campaign for the status endpoint.
func (st *campaignState) status(full bool) CampaignStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	cs := CampaignStatus{
		ID: st.id, Spec: st.spec, Next: st.next, Seeds: st.spec.Seeds,
		Done: st.done, Error: st.failed,
		CacheHits: st.sum.CacheHits, Explored: st.sum.Explored,
	}
	if full && st.done {
		cs.Report = st.report
	}
	return cs
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/check              check one litmus program (cache-answered)
//	POST /v1/campaigns          submit a campaign Spec; returns its id
//	GET  /v1/campaigns          list campaigns
//	GET  /v1/campaigns/{id}     one campaign's status (+report when done)
//	GET  /v1/campaigns/{id}/events   NDJSON progress stream (replay + live)
//	GET  /v1/stats              cache counters
//
// A POST body must be one JSON object of at most maxRequestBody bytes,
// followed by nothing but whitespace: a larger body is answered 413, and
// trailing data 400, before anything is explored or stored. So is, with 400,
// a body with a field its endpoint does not take, and a request that asks
// for more than the server runs (see checkBounds).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// CheckRequest submits one program for a differential check. The program is
// litmus text (the repository's corpus format).
type CheckRequest struct {
	Litmus    string `json:"litmus"`
	Machines  string `json:"machines,omitempty"`   // CSV, default "weak"
	MaxStates int    `json:"max_states,omitempty"` // 0 = fuzzing default
	Minimize  bool   `json:"minimize,omitempty"`
}

// CheckResponse is the verdict. Cached reports whether it was answered from
// the result cache; ExploredNow counts the distinct states explored BY THIS
// REQUEST — zero on a cache hit, which is how a client (and the CI smoke
// test) verifies no re-exploration happened. States is the exploration the
// verdict originally cost, whenever it was first computed.
type CheckResponse struct {
	Name        string            `json:"name"`
	Key         string            `json:"key"`
	Cached      bool              `json:"cached"`
	ExploredNow int64             `json:"explored_now"`
	States      int64             `json:"states"`
	DRF0        bool              `json:"drf0"`
	Skipped     bool              `json:"skipped,omitempty"`
	SCOutcomes  int               `json:"sc_outcomes,omitempty"`
	RacyNonSC   bool              `json:"racy_non_sc,omitempty"`
	Violating   []string          `json:"violating,omitempty"`
	Reproducers map[string]string `json:"reproducers,omitempty"`
}

func (s *Server) handleCheck(w http.ResponseWriter, req *http.Request) {
	var cr CheckRequest
	if !decodeJSON(w, req, &cr) {
		return
	}
	if err := checkBounds(cr.MaxStates); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(cr.Litmus) == "" {
		httpError(w, http.StatusBadRequest, errors.New("empty litmus program"))
		return
	}
	res, err := program.Parse(cr.Litmus)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parsing litmus program: %w", err))
		return
	}
	p := res.Program
	machines := cr.Machines
	if machines == "" {
		machines = "weak"
	}
	factories, err := litmus.FactoriesByNames(machines)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	xt := *fuzz.DefaultExplorer()
	if cr.MaxStates > 0 {
		xt.MaxStates = cr.MaxStates
	}
	xt.Workers = -1 // fan the verdict's explorations out on the shared par budget
	v, key, cached, err := FuzzVerdict(s.store, p, factories, xt, cr.Minimize)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := CheckResponse{
		Name: p.Name, Key: hex.EncodeToString(key[:]), Cached: cached,
		States: v.States, DRF0: v.DRF0, Skipped: v.Skipped,
		SCOutcomes: v.SCOutcomes, RacyNonSC: v.RacyNonSC,
		Violating: v.Violating, Reproducers: v.Reproducers,
	}
	if !cached {
		resp.ExploredNow = v.States
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	if !decodeJSON(w, req, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkBounds(spec.MaxStates); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	id := fmt.Sprintf("c%d", s.seq)
	s.seq++
	st := s.register(id, spec)
	s.mu.Unlock()
	s.launch(st, false)
	writeJSON(w, http.StatusAccepted, st.status(false))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(req *http.Request) (*campaignState, bool) {
	s.mu.Lock()
	st, ok := s.campaigns[req.PathValue("id")]
	s.mu.Unlock()
	return st, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	st, ok := s.lookup(req)
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such campaign"))
		return
	}
	writeJSON(w, http.StatusOK, st.status(true))
}

// handleEvents streams the campaign's progress as NDJSON: first every
// buffered event (so a late subscriber sees the full history), then live
// events as seeds complete, ending after the terminal "done"/"error" line.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	st, ok := s.lookup(req)
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such campaign"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Wake the streaming loop when the client goes away: the request
	// context's cancellation broadcasts on the same cond the events use.
	ctx := req.Context()
	stop := context.AfterFunc(ctx, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stop()

	sent := 0
	for {
		st.mu.Lock()
		for sent == len(st.events) && !st.done && ctx.Err() == nil {
			st.cond.Wait()
		}
		batch := st.events[sent:]
		sent = len(st.events)
		done := st.done
		st.mu.Unlock()
		for _, line := range batch {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ctx.Err() != nil || (done && len(batch) == 0) {
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusOK, StoreStats{})
		return
	}
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// maxRequestBody caps a request body in bytes. A check request carries one
// litmus program and a campaign request a spec, each a few kilobytes.
const maxRequestBody = 1 << 20

// checkBounds rejects a state budget above what the server runs: the
// kernel's safety net, explore.DefaultMaxStates.
func checkBounds(maxStates int) error {
	if maxStates > explore.DefaultMaxStates {
		return fmt.Errorf("max_states %d exceeds %d", maxStates, explore.DefaultMaxStates)
	}
	return nil
}

// decodeJSON strictly decodes the request body as one JSON value into v, of
// which only whitespace may follow. On failure it answers the request itself,
// 413 for a body over maxRequestBody and 400 for any other error, and
// returns false.
func decodeJSON(w http.ResponseWriter, req *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
