package mem_test

import (
	"testing"

	"weakorder/internal/litmus"
	"weakorder/internal/mem"
	"weakorder/internal/model"
)

// FuzzResultKey holds the result-key decoder to its contract: every input is
// either rejected or decodes to a Result whose Key is the input, byte for
// byte. The seeds are the outcomes of the litmus corpus on the SC machine and
// on the most relaxed one, whose non-SC outcomes are the keys a verdict's
// Extra lists decode.
func FuzzResultKey(f *testing.F) {
	x := &model.Explorer{MaxTraceOps: 40, MaxStates: 100_000}
	for _, tc := range litmus.Corpus() {
		for _, m := range []model.Machine{model.NewSC(tc.Prog), model.NewRMO(tc.Prog)} {
			out, _, err := x.Outcomes(m)
			if err != nil {
				f.Fatalf("%s on %s: %v", tc.Name, m.Name(), err)
			}
			for k := range out {
				f.Add(k)
			}
		}
	}
	f.Add("|")
	f.Add("P0.0=01;|x0=1;")
	f.Fuzz(func(t *testing.T, key string) {
		r, err := mem.ParseResultKey(key)
		if err != nil {
			return
		}
		if got := r.Key(); got != key {
			t.Fatalf("ParseResultKey(%q) re-encodes as %q", key, got)
		}
	})
}
