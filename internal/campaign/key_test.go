package campaign

import (
	"context"
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
// out at the type level: Options has no field for them; TestPORAndWidthNotKeyed
// pins the end-to-end consequence.)
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

// TestPORAndWidthNotKeyed pins the negative half of the key contract end to
// end: a campaign re-run with POR disabled and a different exploration width
// — both proved outcome-identical by the differential gates — must be fully
// answered from a cache populated by the default configuration.
func TestPORAndWidthNotKeyed(t *testing.T) {
	store, err := OpenStore(t.TempDir() + "/cache.wocs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	spec := Spec{Seeds: 6, BaseSeed: 1, Machines: "tso"}
	warm := &Runner{Spec: spec, Store: store}
	warmRep, warmSum, err := warm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmSum.CacheHits != 0 {
		t.Fatalf("warm-up run had %d cache hits, want 0", warmSum.CacheHits)
	}

	cold := spec
	cold.POROff = true
	cold.ExploreWorkers = 2
	second := &Runner{Spec: cold, Store: store}
	rep, sum, err := second.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if int(sum.CacheHits) != spec.Seeds {
		t.Fatalf("POR/width change split the cache: %d/%d hits", sum.CacheHits, spec.Seeds)
	}
	if sum.Explored != 0 {
		t.Fatalf("cache-hit run explored %d states, want 0", sum.Explored)
	}
	a, _ := MarshalReport(warmRep)
	b, _ := MarshalReport(rep)
	if string(a) != string(b) {
		t.Fatalf("cached report diverged from computed report:\n%s\nvs\n%s", a, b)
	}
}
