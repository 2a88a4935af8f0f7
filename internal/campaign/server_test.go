package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weakorder/internal/explore"
	"weakorder/internal/fuzz"
	"weakorder/internal/litmus"
	"weakorder/internal/par"
	"weakorder/internal/program"
)

func newTestService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(filepath.Join(t.TempDir(), "cache.wocs"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := NewServer(store, t.TempDir())
	t.Cleanup(srv.Shutdown)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestCheckEndpointCacheHit is the service's acceptance property: submitting
// the same litmus program twice answers the second request from the cache,
// proved by the exploration counters — explored_now is positive on the first
// response and zero on the second, with identical verdicts.
func TestCheckEndpointCacheHit(t *testing.T) {
	_, hs := newTestService(t)

	_, p := ProgramFor(1, 0)
	req := CheckRequest{Litmus: fuzz.EmitLitmus(p), Machines: "tso,pso"}

	var first CheckResponse
	if code := postJSON(t, hs.URL+"/v1/check", req, &first); code != http.StatusOK {
		t.Fatalf("first check: status %d", code)
	}
	if first.Cached {
		t.Fatalf("first submission reported cached")
	}
	if first.ExploredNow == 0 || first.States == 0 {
		t.Fatalf("first submission explored nothing: %+v", first)
	}

	var second CheckResponse
	if code := postJSON(t, hs.URL+"/v1/check", req, &second); code != http.StatusOK {
		t.Fatalf("second check: status %d", code)
	}
	if !second.Cached {
		t.Fatalf("identical resubmission was not answered from the cache")
	}
	if second.ExploredNow != 0 {
		t.Fatalf("cache hit explored %d states, want 0", second.ExploredNow)
	}
	if second.States != first.States || second.Key != first.Key ||
		second.DRF0 != first.DRF0 || second.SCOutcomes != first.SCOutcomes {
		t.Fatalf("cached verdict diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	// The program's NAME is not part of the identity: a renamed but
	// structurally identical submission still hits.
	renamed := *p
	renamed.Name = "renamed-program"
	var third CheckResponse
	if code := postJSON(t, hs.URL+"/v1/check", CheckRequest{Litmus: fuzz.EmitLitmus(&renamed), Machines: "tso,pso"}, &third); code != http.StatusOK {
		t.Fatalf("renamed check: status %d", code)
	}
	if !third.Cached || third.ExploredNow != 0 {
		t.Fatalf("renamed resubmission missed the cache: %+v", third)
	}

	// A different machine set is a different key: no false hit.
	var fourth CheckResponse
	if code := postJSON(t, hs.URL+"/v1/check", CheckRequest{Litmus: fuzz.EmitLitmus(p), Machines: "tso"}, &fourth); code != http.StatusOK {
		t.Fatalf("narrowed check: status %d", code)
	}
	if fourth.Cached {
		t.Fatalf("different machine set was answered from the cache")
	}
}

// verdictWidths are the par widths the /v1/check cost tests run at. 16 is
// above a default verdict's fan-out (the SC pass and one exploration per
// behaviour identity among the weakly ordered machines, 8 items), so slots
// are left over that the explorations must not take.
var verdictWidths = []int{1, 2, 16}

// TestCheckExploredNowIsWholeCost pins a cold /v1/check's explored_now and
// states to the verdict's whole exploration cost: the States a serial
// fuzz.Checker.Check reports, which is the SC pass plus one exploration per
// behaviour identity, at every par width.
func TestCheckExploredNowIsWholeCost(t *testing.T) {
	for _, w := range verdictWidths {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			defer par.SetWorkers(w)()
			_, hs := newTestService(t)
			for i := 0; i < 4; i++ {
				_, p := ProgramFor(1, i)
				var resp CheckResponse
				if code := postJSON(t, hs.URL+"/v1/check", CheckRequest{Litmus: fuzz.EmitLitmus(p)}, &resp); code != http.StatusOK {
					t.Fatalf("%s: status %d", p.Name, code)
				}
				res, err := program.Parse(fuzz.EmitLitmus(p))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := (&fuzz.Checker{}).Check(res.Program) // the weakly ordered machines, as /v1/check defaults
				if err != nil {
					t.Fatal(err)
				}
				if resp.Cached || resp.ExploredNow != rep.States || resp.States != rep.States {
					t.Errorf("%s: cached %v, explored_now %d, states %d; want a cold reply exploring %d", p.Name, resp.Cached, resp.ExploredNow, resp.States, rep.States)
				}
			}
		})
	}
}

// TestCheckSkippedVerdictCountsExploration pins the cost a verdict skipped on
// the state budget reports: the explorations that ran before the budget
// stopped one still count. wrc-transitive-sync's SC pass alone exceeds 500
// states, so at width 1, where the fan-out runs in order and skips the
// machines once the SC pass fails, explored_now is exactly the budget; wider
// fan-outs may run machines beside it, so it is at least the budget.
func TestCheckSkippedVerdictCountsExploration(t *testing.T) {
	const budget = 500
	lt, ok := litmus.ByName("wrc-transitive-sync")
	if !ok {
		t.Fatal("wrc-transitive-sync is not in the litmus corpus")
	}
	for _, w := range verdictWidths {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			defer par.SetWorkers(w)()
			_, hs := newTestService(t)
			var resp CheckResponse
			if code := postJSON(t, hs.URL+"/v1/check", CheckRequest{Litmus: fuzz.EmitLitmus(lt.Prog), MaxStates: budget}, &resp); code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if !resp.Skipped || resp.Cached {
				t.Fatalf("skipped %v, cached %v; want a cold skipped verdict", resp.Skipped, resp.Cached)
			}
			want := "at least"
			if w == 1 {
				want = "exactly"
			}
			if resp.ExploredNow < budget || w == 1 && resp.ExploredNow != budget || resp.States != resp.ExploredNow {
				t.Errorf("explored_now %d, states %d; want both %s %d", resp.ExploredNow, resp.States, want, budget)
			}
		})
	}
}

// TestCheckEndpointRejectsBadInput pins the request validation surface.
func TestCheckEndpointRejectsBadInput(t *testing.T) {
	_, hs := newTestService(t)
	for name, req := range map[string]CheckRequest{
		"empty program":   {Litmus: ""},
		"unparseable":     {Litmus: "this is not a litmus program"},
		"unknown machine": {Litmus: func() string { _, p := ProgramFor(1, 0); return fuzz.EmitLitmus(p) }(), Machines: "no-such-machine"},
	} {
		if code := postJSON(t, hs.URL+"/v1/check", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d", name, code, http.StatusBadRequest)
		}
	}
}

// TestRequestBodyBounds posts bodies the service must refuse to read whole or
// to take in part: a body over maxRequestBody, whether one huge JSON value or
// a small one padded past the cap, is answered 413, and a valid request
// followed by anything but whitespace 400. Neither explores, touches the
// store or registers a campaign; the same request followed by whitespace
// alone is served.
func TestRequestBodyBounds(t *testing.T) {
	srv, hs := newTestService(t)
	_, p := ProgramFor(1, 0)
	check, err := json.Marshal(CheckRequest{Litmus: fuzz.EmitLitmus(p), Machines: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := json.Marshal(Spec{Seeds: 1, BaseSeed: 1, Machines: "tso"})
	if err != nil {
		t.Fatal(err)
	}
	huge := append(append([]byte(`{"machines": "`), bytes.Repeat([]byte("x"), maxRequestBody)...), `"}`...)
	padded := func(valid []byte) []byte { return append(valid, bytes.Repeat([]byte(" "), maxRequestBody)...) }
	trailing := func(valid []byte) []byte { return append(valid, ` {"litmus": "ignored"} garbage`...) }
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, ep := range []struct {
		path  string
		valid []byte
	}{{"/v1/check", check}, {"/v1/campaigns", campaign}} {
		for _, c := range []struct {
			name string
			body []byte
			want int
		}{
			{"huge value", huge, http.StatusRequestEntityTooLarge},
			{"padded past the cap", padded(ep.valid), http.StatusRequestEntityTooLarge},
			{"trailing data", trailing(ep.valid), http.StatusBadRequest},
		} {
			if code := post(ep.path, c.body); code != c.want {
				t.Errorf("%s, %s: status %d, want %d", ep.path, c.name, code, c.want)
			}
		}
	}
	if st := srv.store.Stats(); st != (StoreStats{}) {
		t.Errorf("refused requests reached the store: %+v", st)
	}
	var list []CampaignStatus
	if code := getJSON(t, hs.URL+"/v1/campaigns", &list); code != http.StatusOK || len(list) != 0 {
		t.Errorf("refused submissions registered campaigns: status %d, %+v", code, list)
	}
	if code := post("/v1/check", append(check, " \n\t "...)); code != http.StatusOK {
		t.Errorf("/v1/check followed by whitespace: status %d, want %d", code, http.StatusOK)
	}
	if st := srv.store.Stats(); st.Puts != 1 {
		t.Errorf("the served check stored %d verdicts, want 1", st.Puts)
	}
}

// TestRequestExplorationBounds pins the ceiling on what a client may ask the
// service to run: a max_states above explore.DefaultMaxStates, on either
// endpoint, is answered 400, naming the field, before anything is explored,
// stored or registered. Requests at the ceiling are served.
func TestRequestExplorationBounds(t *testing.T) {
	srv, hs := newTestService(t)
	_, p := ProgramFor(1, 0)
	check := CheckRequest{Litmus: fuzz.EmitLitmus(p), Machines: "tso"}
	spec := Spec{Seeds: 1, BaseSeed: 1, Machines: "tso"}
	bigSpec, bigCheck := spec, check
	bigSpec.MaxStates = explore.DefaultMaxStates + 1
	bigCheck.MaxStates = explore.DefaultMaxStates + 1
	for _, r := range []struct {
		field, path string
		body        any
	}{
		{"max_states", "/v1/campaigns", bigSpec},
		{"max_states", "/v1/check", bigCheck},
	} {
		var refusal map[string]string
		if code := postJSON(t, hs.URL+r.path, r.body, &refusal); code != http.StatusBadRequest || !strings.Contains(refusal["error"], r.field) {
			t.Errorf("%s, %s: status %d, error %q; want %d naming %s", r.path, r.field, code, refusal["error"], http.StatusBadRequest, r.field)
		}
	}
	if st := srv.store.Stats(); st != (StoreStats{}) {
		t.Errorf("refused requests reached the store: %+v", st)
	}
	var list []CampaignStatus
	if code := getJSON(t, hs.URL+"/v1/campaigns", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("refused submissions registered campaigns: status %d, %+v", code, list)
	}

	bigSpec.MaxStates = explore.DefaultMaxStates
	bigCheck.MaxStates = explore.DefaultMaxStates
	var accepted CampaignStatus
	if code := postJSON(t, hs.URL+"/v1/campaigns", bigSpec, &accepted); code != http.StatusAccepted {
		t.Fatalf("campaign at the ceiling: status %d, want %d", code, http.StatusAccepted)
	}
	if final := waitDone(t, hs.URL, accepted.ID); final.Error != "" {
		t.Fatalf("campaign at the ceiling failed: %s", final.Error)
	}
	if code := postJSON(t, hs.URL+"/v1/check", bigCheck, nil); code != http.StatusOK {
		t.Errorf("/v1/check at max_states %d: status %d, want %d", bigCheck.MaxStates, code, http.StatusOK)
	}
}

// waitDone polls a campaign's status until it reports done.
func waitDone(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st CampaignStatus
		if code := getJSON(t, base+"/v1/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if st.Done {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return CampaignStatus{}
}

// TestCampaignSubmitAndStream submits a campaign over HTTP, follows its
// NDJSON event stream, and checks the final report matches a direct Runner
// run of the same spec.
func TestCampaignSubmitAndStream(t *testing.T) {
	_, hs := newTestService(t)
	spec := Spec{Seeds: 5, BaseSeed: 1, Machines: "tso"}

	var accepted CampaignStatus
	if code := postJSON(t, hs.URL+"/v1/campaigns", spec, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if accepted.ID == "" {
		t.Fatalf("no campaign id assigned")
	}
	final := waitDone(t, hs.URL, accepted.ID)
	if final.Error != "" {
		t.Fatalf("campaign failed: %s", final.Error)
	}
	if final.Report == nil || len(final.Report.Programs) != spec.Seeds {
		t.Fatalf("final report missing or short: %+v", final.Report)
	}

	// The event stream replays one line per seed plus the terminal line.
	resp, err := http.Get(hs.URL + "/v1/campaigns/" + accepted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != spec.Seeds+1 {
		t.Fatalf("got %d events, want %d seed lines + 1 terminal", len(events), spec.Seeds+1)
	}
	for i, ev := range events[:spec.Seeds] {
		if ev.Type != "seed" || ev.Index != i {
			t.Fatalf("event %d = %+v, want seed event in order", i, ev)
		}
	}
	if events[spec.Seeds].Type != "done" {
		t.Fatalf("terminal event = %+v, want done", events[spec.Seeds])
	}

	// The report served over HTTP is the report a direct run computes.
	direct := &Runner{Spec: spec}
	rep, _, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalReport(rep)
	b, _ := MarshalReport(final.Report)
	if string(a) != string(b) {
		t.Fatalf("served report != direct report")
	}

	// A second identical campaign is fully cache-answered.
	var again CampaignStatus
	if code := postJSON(t, hs.URL+"/v1/campaigns", spec, &again); code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	st := waitDone(t, hs.URL, again.ID)
	if int(st.CacheHits) != spec.Seeds || st.Explored != 0 {
		t.Fatalf("resubmitted campaign: hits=%d explored=%d, want %d/0", st.CacheHits, st.Explored, spec.Seeds)
	}
}

// TestServerRecoverResumesCheckpoint pins the always-on story: a server that
// finds an interrupted campaign's checkpoint in its directory resumes and
// completes it, and the final report equals an uninterrupted run's.
func TestServerRecoverResumesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Seeds: 6, BaseSeed: 1, Machines: "tso"}

	// Simulate a previous server instance dying mid-campaign.
	killed := &Runner{Spec: spec, CheckpointDir: filepath.Join(dir, "c0"),
		CheckpointEvery: 2, StopAfter: 3}
	if _, _, err := killed.Run(context.Background()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	srv := NewServer(nil, dir)
	t.Cleanup(srv.Shutdown)
	resumed, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != "c0" {
		t.Fatalf("resumed = %v, want [c0]", resumed)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	final := waitDone(t, hs.URL, "c0")
	if final.Error != "" {
		t.Fatalf("recovered campaign failed: %s", final.Error)
	}
	direct := &Runner{Spec: spec}
	rep, _, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalReport(rep)
	b, _ := MarshalReport(final.Report)
	if string(a) != string(b) {
		t.Fatalf("recovered report != uninterrupted report")
	}

	// A new submission gets an id past the recovered one.
	var accepted CampaignStatus
	if code := postJSON(t, hs.URL+"/v1/campaigns", Spec{Seeds: 1, BaseSeed: 9, Machines: "tso"}, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit after recover: status %d", code)
	}
	if accepted.ID == "c0" {
		t.Fatalf("new campaign reused a recovered id")
	}
	waitDone(t, hs.URL, accepted.ID)
}
