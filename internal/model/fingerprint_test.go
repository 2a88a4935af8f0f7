package model_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// fingerprintRun is the outcome of one pass over the fingerprint matrix.
type fingerprintRun struct {
	digest string // hex SHA-256 over every exploration's Stats and outcomes
	cells  int    // explorations run
	// keys is the first break of the bijection between digest-form and full
	// state keys (see keyPairs), or an exploration error; nil when none.
	keys error
	// shorter counts digest-form keys shorter than their full keys.
	shorter int
}

var (
	fingerprintOnce sync.Once
	fingerprint     fingerprintRun
)

// fingerprintMatrix explores, for every program, every machine (standard
// and broken), POR on and off, and key modes KeyState and KeyResult, plus,
// per program, the SC machine at KeyExecution, each serially. Every machine
// is wrapped in a keyRecorder, which passes its keys through unchanged. The
// pass runs once per test binary: TestStateSpaceFingerprint reads its digest
// and TestDigestKeysBijectFullKeys its key check.
func fingerprintMatrix() *fingerprintRun {
	fingerprintOnce.Do(func() { fingerprint = exploreFingerprintMatrix() })
	return &fingerprint
}

func exploreFingerprintMatrix() fingerprintRun {
	var run fingerprintRun
	h := sha256.New()
	visit := func(p *program.Program, x *model.Explorer, m model.Machine, fn func(model.Machine) bool) (model.Stats, error) {
		pairs := newKeyPairs()
		st, err := x.Visit(&keyRecorder{Machine: m, pairs: pairs}, fn)
		keys := pairs.check()
		if keys == nil && err != nil && !errors.Is(err, model.ErrStateBudget) {
			keys = err
		}
		if keys != nil && run.keys == nil {
			run.keys = fmt.Errorf("%s on %s, mode %d, POR off %v: %w", p.Name, m.Name(), x.Mode, x.FullExploration, keys)
		}
		run.shorter += pairs.shorter
		run.cells++
		return st, err
	}
	for pi, p := range fingerprintPrograms() {
		for _, f := range allMachines() {
			for _, mode := range []model.KeyMode{model.KeyState, model.KeyResult} {
				for _, full := range []bool{false, true} {
					x := &model.Explorer{Mode: mode, FullExploration: full, MaxTraceOps: 40, MaxStates: fingerprintBudget}
					out := make(core.OutcomeSet)
					st, err := visit(p, x, f.New(p), func(m model.Machine) bool {
						out.Add(model.ResultOf(m.(*keyRecorder).Machine))
						return true
					})
					fmt.Fprintf(h, "%d %s %s mode=%d full=%v: %s err=%v\n", pi, p.Name, f.Name, mode, full, st, err)
					for _, k := range out.Keys() {
						fmt.Fprintf(h, "  %s\n", k)
					}
				}
			}
		}
		for _, full := range []bool{false, true} {
			x := &model.Explorer{Mode: model.KeyExecution, FullExploration: full, MaxTraceOps: 40, MaxStates: fingerprintBudget}
			traceOps := 0
			st, err := visit(p, x, model.NewSC(p), func(m model.Machine) bool {
				traceOps += m.Trace().Len()
				return true
			})
			fmt.Fprintf(h, "%d %s SC KeyExecution full=%v: %s err=%v trace ops %d\n", pi, p.Name, full, st, err, traceOps)
		}
	}
	run.digest = hex.EncodeToString(h.Sum(nil))
	return run
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
	run := fingerprintMatrix()
	data, err := os.ReadFile(filepath.FromSlash(fingerprintFile))
	if err != nil {
		t.Fatalf("%v (digest over %d cells: %s)", err, run.cells, run.digest)
	}
	if want := strings.TrimSpace(string(data)); run.digest != want {
		t.Fatalf("state-space fingerprint over %d cells = %s, want %s (%s)", run.cells, run.digest, want, fingerprintFile)
	}
}
