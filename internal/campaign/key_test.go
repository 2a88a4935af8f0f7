package campaign

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"weakorder/internal/faults"
)

// baseOpts is the reference option set the sensitivity matrix perturbs.
func baseOpts() Options {
	return Options{Machines: []string{"tso", "pso"}, MaxStates: 400_000, MaxTraceOps: 40}
}

// TestKeySensitivityMatrix pins exactly what the cache key depends on.
// In the key: the program's structure, the machine list (including order),
// the state and trace budgets, and the chaos fault schedule. NOT in the key:
// the program's name — structurally identical programs must dedup across
// campaigns that label them differently. (POR and exploration width are kept
// out by construction: no verdict path takes them as a setting, and
// TestPORAndWidthNotKeyed pins that the service refuses them.)
func TestKeySensitivityMatrix(t *testing.T) {
	_, p := ProgramFor(1, 0)
	base := Key(p, baseOpts())

	// Determinism: the same inputs rederive the same key.
	if again := Key(p, baseOpts()); again != base {
		t.Fatalf("key is not deterministic: %x vs %x", base, again)
	}
	// Regenerating the identical program gives the identical key.
	_, p2 := ProgramFor(1, 0)
	if k := Key(p2, baseOpts()); k != base {
		t.Fatalf("regenerated program changed the key: %x vs %x", base, k)
	}
	// The program's NAME is not keyed.
	renamed := *p
	renamed.Name = "something-else"
	if k := Key(&renamed, baseOpts()); k != base {
		t.Fatalf("program name is in the key: %x vs %x", base, k)
	}
	// A different program is keyed differently.
	_, q := ProgramFor(1, 1)
	if k := Key(q, baseOpts()); k == base {
		t.Fatalf("different programs share a key")
	}

	perturb := map[string]func(*Options){
		"machine set":    func(o *Options) { o.Machines = []string{"tso"} },
		"machine order":  func(o *Options) { o.Machines = []string{"pso", "tso"} },
		"machine rename": func(o *Options) { o.Machines = []string{"tso", "rmo"} },
		"max states":     func(o *Options) { o.MaxStates = 100_000 },
		"max trace ops":  func(o *Options) { o.MaxTraceOps = 39 },
		"chaos flag":     func(o *Options) { o.Chaos = true },
	}
	for what, mutate := range perturb {
		o := baseOpts()
		mutate(&o)
		if k := Key(p, o); k == base {
			t.Errorf("%s is NOT in the key but must be", what)
		}
	}

	// Chaos schedule: seed and every rate field are keyed.
	chaosBase := baseOpts()
	chaosBase.Chaos = true
	chaosBase.FaultSeed = 7
	chaosBase.FaultRates = faults.DefaultRates()
	ck := Key(p, chaosBase)
	chaosPerturb := map[string]func(*Options){
		"fault seed":   func(o *Options) { o.FaultSeed = 8 },
		"drop rate":    func(o *Options) { o.FaultRates.Drop += 0.01 },
		"dup rate":     func(o *Options) { o.FaultRates.Dup += 0.01 },
		"delay rate":   func(o *Options) { o.FaultRates.Delay += 0.01 },
		"reorder rate": func(o *Options) { o.FaultRates.Reorder += 0.01 },
		"max delay":    func(o *Options) { o.FaultRates.MaxDelay++ },
	}
	for what, mutate := range chaosPerturb {
		o := chaosBase
		mutate(&o)
		if k := Key(p, o); k == ck {
			t.Errorf("chaos %s is NOT in the key but must be", what)
		}
	}
}

// TestPORAndWidthNotKeyed pins the negative half of the key contract: POR and
// exploration width are not keyed because no verdict can be asked to vary
// them. A reduced search's state count depends on the order it enumerates, so
// either setting could flip a verdict between checked and skipped under the
// same key. A campaign naming por_off or explore_workers is answered 400,
// with an error naming the field, before anything is stored or registered.
func TestPORAndWidthNotKeyed(t *testing.T) {
	srv, hs := newTestService(t)
	for field, body := range map[string]string{
		"por_off":         `{"seeds": 1, "base_seed": 1, "machines": "tso", "por_off": true}`,
		"explore_workers": `{"seeds": 1, "base_seed": 1, "machines": "tso", "explore_workers": 2}`,
	} {
		var refusal struct{ Error string }
		if code := postJSON(t, hs.URL+"/v1/campaigns", json.RawMessage(body), &refusal); code != http.StatusBadRequest || !strings.Contains(refusal.Error, field) {
			t.Errorf("campaign with %s: status %d, error %q; want %d naming the field", field, code, refusal.Error, http.StatusBadRequest)
		}
	}
	if st := srv.store.Stats(); st != (StoreStats{}) {
		t.Errorf("refused campaigns reached the store: %+v", st)
	}
	var list []CampaignStatus
	if code := getJSON(t, hs.URL+"/v1/campaigns", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("refused campaigns were registered: status %d, %+v", code, list)
	}
}
