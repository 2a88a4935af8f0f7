package model_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakorder/internal/campaign"
	"weakorder/internal/core"
	"weakorder/internal/litmus"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// fingerprintFile holds one SHA-256 over every exploration that
// TestStateSpaceFingerprint runs. It changes only when a change alters what
// the machines explore: the states visited, the transitions taken, the final
// states or the outcomes.
const fingerprintFile = "testdata/state_fingerprint.txt"

// fingerprintBudget caps each exploration. A few cached-network explorations
// exhaust it; their Stats and outcomes up to the cap are pinned like the rest,
// since a serial search visits states in a fixed order.
const fingerprintBudget = 20_000

// fingerprintPrograms is the litmus corpus followed by the first 64 programs
// of fuzz campaign seed 1.
func fingerprintPrograms() []*program.Program {
	var progs []*program.Program
	for _, tc := range litmus.Corpus() {
		progs = append(progs, tc.Prog)
	}
	for i := 0; i < 64; i++ {
		_, p := campaign.ProgramFor(1, i)
		progs = append(progs, p)
	}
	return progs
}

// TestStateSpaceFingerprint hashes, for every program, every machine
// (standard and broken), POR on and off, and key modes KeyState and
// KeyResult, the serial exploration's Stats and outcome keys; plus, per
// program, the SC machine's KeyExecution Stats and summed trace lengths. The
// digest is pinned in testdata: machine-state representation changes must
// leave every exploration exactly as it was.
func TestStateSpaceFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every machine on 80 programs")
	}
	h := sha256.New()
	var machines []litmus.Factory
	seen := make(map[string]bool)
	for _, f := range append(litmus.Factories(), litmus.BrokenFactories()...) {
		if !seen[f.Name] {
			seen[f.Name] = true
			machines = append(machines, f)
		}
	}
	cells := 0
	for pi, p := range fingerprintPrograms() {
		for _, f := range machines {
			for _, mode := range []model.KeyMode{model.KeyState, model.KeyResult} {
				for _, full := range []bool{false, true} {
					x := &model.Explorer{Mode: mode, FullExploration: full, MaxTraceOps: 40, MaxStates: fingerprintBudget}
					out := make(core.OutcomeSet)
					st, err := x.Visit(f.New(p), func(m model.Machine) bool {
						out.Add(m.Result())
						return true
					})
					fmt.Fprintf(h, "%d %s %s mode=%d full=%v: %s err=%v\n", pi, p.Name, f.Name, mode, full, st, err)
					for _, k := range out.Keys() {
						fmt.Fprintf(h, "  %s\n", k)
					}
					cells++
				}
			}
		}
		for _, full := range []bool{false, true} {
			x := &model.Explorer{Mode: model.KeyExecution, FullExploration: full, MaxTraceOps: 40, MaxStates: fingerprintBudget}
			traceOps := 0
			st, err := x.Visit(model.NewSC(p), func(m model.Machine) bool {
				traceOps += m.Trace().Len()
				return true
			})
			fmt.Fprintf(h, "%d %s SC KeyExecution full=%v: %s err=%v trace ops %d\n", pi, p.Name, full, st, err, traceOps)
			cells++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	data, err := os.ReadFile(filepath.FromSlash(fingerprintFile))
	if err != nil {
		t.Fatalf("%v (digest over %d cells: %s)", err, cells, got)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("state-space fingerprint over %d cells = %s, want %s (%s)", cells, got, want, fingerprintFile)
	}
}
