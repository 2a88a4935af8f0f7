package workload

import (
	"testing"

	"weakorder/internal/core"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/program"
)

// runSCOnce executes the program on the idealized machine along one schedule
// (first enabled transition each step) and returns the final machine.
func runSCOnce(t *testing.T, p *program.Program) model.Machine {
	t.Helper()
	m := model.NewSC(p)
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("program did not terminate")
		}
		ts := m.Transitions(nil)
		if len(ts) == 0 {
			if !m.Done() {
				t.Fatal("deadlock")
			}
			return m
		}
		// Rotate the choice to avoid starving a spinning thread's partner.
		if err := m.Apply(ts[steps%len(ts)]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	p := Fig3(2, 10)
	if p.NumThreads() != 4 {
		t.Fatalf("threads = %d, want producer+consumer+2 warmers", p.NumThreads())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := runSCOnce(t, p)
	fs := m.Final()
	if fs.Regs[1][1] != 42 {
		t.Errorf("consumer read %d, want 42", fs.Regs[1][1])
	}
}

func TestFig3IsDRF0(t *testing.T) {
	// Three spinning threads make the execution set large; bound executions
	// to a dozen operations (the shortest complete run needs 8, so the
	// bound still covers spin retries of each loop).
	p := Fig3(1, 0)
	enum := &model.Enumerator{Prog: p, Explorer: &model.Explorer{MaxTraceOps: 12}}
	rep, err := core.CheckProgram(enum, core.DRF0{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Obeys() {
		t.Errorf("Fig3 must obey DRF0: %s", rep)
	}
}

func TestProducerConsumerChecksumOnSC(t *testing.T) {
	const items = 5
	p := ProducerConsumer(items, 1)
	m := runSCOnce(t, p)
	if got := m.Final().Mem[XAddr()]; got != ProducerConsumerChecksum(items) {
		t.Errorf("checksum = %d, want %d", got, ProducerConsumerChecksum(items))
	}
}

func TestBarrierSCSenseAdvances(t *testing.T) {
	p := Barrier(3, 4, 1, SpinSync)
	m := runSCOnce(t, p)
	if got := m.Final().Mem[SenseAddr()]; got != 4 {
		t.Errorf("final sense = %d, want 4", got)
	}
}

func TestBarrierRejectsTASSpin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Barrier(2, 1, 1, SpinTAS)
}

func TestLockTotalOnSC(t *testing.T) {
	for _, spin := range []SpinKind{SpinTAS, SpinSync, SpinData} {
		p := Lock(3, 2, 1, 1, spin)
		m := runSCOnce(t, p)
		if got := m.Final().Mem[CtrAddr()]; got != LockTotal(3, 2) {
			t.Errorf("%s: counter = %d, want %d", spin, got, LockTotal(3, 2))
		}
	}
}

func TestLockSyncSpinIsDRF0DataSpinIsNot(t *testing.T) {
	x := &model.Explorer{MaxTraceOps: 28}
	syncP := Lock(2, 1, 0, 0, SpinSync)
	rep, err := core.CheckProgram(&model.Enumerator{Prog: syncP, Explorer: x}, core.DRF0{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Obeys() {
		t.Errorf("sync-spin lock must obey DRF0: %s", rep)
	}
	dataP := Lock(2, 1, 0, 0, SpinData)
	rep, err = core.CheckProgram(&model.Enumerator{Prog: dataP, Explorer: x}, core.DRF0{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obeys() {
		t.Error("data-spin lock should violate DRF0 (the Section-6 idiom)")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cfg := RandomConfig{Procs: 2, Ops: 5, SyncDensity: 50}
	a := Random(3, cfg)
	b := Random(3, cfg)
	if len(a.Threads) != len(b.Threads) {
		t.Fatal("thread counts differ")
	}
	for i := range a.Threads {
		if len(a.Threads[i]) != len(b.Threads[i]) {
			t.Fatalf("thread %d lengths differ", i)
		}
		for j := range a.Threads[i] {
			if a.Threads[i][j] != b.Threads[i][j] {
				t.Fatalf("instruction %d/%d differs", i, j)
			}
		}
	}
	c := Random(4, cfg)
	same := len(a.Threads[0]) == len(c.Threads[0])
	if same {
		for j := range a.Threads[0] {
			if a.Threads[0][j] != c.Threads[0][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical first threads (suspicious)")
	}
}

func TestRandomAddressSpacesDisjoint(t *testing.T) {
	p := Random(1, RandomConfig{Procs: 3, Ops: 12, SyncDensity: 50})
	for ti, code := range p.Threads {
		for ii, in := range code {
			op, ok := in.MemOp()
			if !ok {
				continue
			}
			if op.IsSync() && in.Addr < randSyncBase {
				t.Errorf("T%d@%d: sync op on data address x%d", ti, ii, in.Addr)
			}
			if !op.IsSync() && in.Addr >= randSyncBase {
				t.Errorf("T%d@%d: data op on sync address x%d", ti, ii, in.Addr)
			}
		}
	}
}

// opCounts tallies the memory-op mix of a program for the generator tests.
func opCounts(p *program.Program) (syncLd, syncSt, tas, faa, data, branches int) {
	for _, code := range p.Threads {
		for _, in := range code {
			switch in.Op {
			case program.ISyncLoad:
				syncLd++
			case program.ISyncStore:
				syncSt++
			case program.ISyncRMW:
				if in.RMW == program.RMWAdd {
					faa++
				} else {
					tas++
				}
			case program.ILoad, program.IStore:
				data++
			case program.IBeq, program.IBne, program.IBlt, program.IJmp:
				branches++
			}
		}
	}
	return
}

// TestRandomSyncDensityDefaultAndOff pins the percentage-knob convention on
// SyncDensity: the zero value defaults to DefaultSyncDensity (so sync ops
// appear), a negative value means exactly zero percent (so none do).
func TestRandomSyncDensityDefaultAndOff(t *testing.T) {
	defaulted := 0
	for seed := int64(0); seed < 8; seed++ {
		p := Random(seed, RandomConfig{Procs: 2, Ops: 6})
		sl, ss, tas, faa, _, _ := opCounts(p)
		defaulted += sl + ss + tas + faa
	}
	if defaulted == 0 {
		t.Fatal("zero SyncDensity must default, not mean 0%: no sync ops across 8 seeds")
	}
	for seed := int64(0); seed < 8; seed++ {
		p := Random(seed, RandomConfig{Procs: 2, Ops: 6, SyncDensity: -1})
		if sl, ss, tas, faa, _, _ := opCounts(p); sl+ss+tas+faa != 0 {
			t.Fatalf("seed %d: negative SyncDensity must emit no sync ops, got %d/%d/%d/%d",
				seed, sl, ss, tas, faa)
		}
	}
}

// TestRandomMixerKnobExtremes drives each mixer knob to its edges and checks
// the emitted op mix honors them.
func TestRandomMixerKnobExtremes(t *testing.T) {
	base := RandomConfig{Procs: 2, Ops: 8, SyncDensity: 100}
	cases := []struct {
		name  string
		tweak func(*RandomConfig)
		check func(t *testing.T, syncLd, syncSt, tas, faa int)
	}{
		{
			name:  "RMWPct=100 makes every sync op an RMW",
			tweak: func(c *RandomConfig) { c.RMWPct = 100 },
			check: func(t *testing.T, sl, ss, tas, faa int) {
				if sl+ss != 0 || tas+faa == 0 {
					t.Fatalf("mix = ld%d st%d tas%d faa%d, want RMWs only", sl, ss, tas, faa)
				}
			},
		},
		{
			name:  "RMWPct=100 FetchAddPct=100 makes every RMW a FetchAdd",
			tweak: func(c *RandomConfig) { c.RMWPct = 100; c.FetchAddPct = 100 },
			check: func(t *testing.T, sl, ss, tas, faa int) {
				if tas != 0 || faa == 0 {
					t.Fatalf("mix = tas%d faa%d, want FetchAdds only", tas, faa)
				}
			},
		},
		{
			name:  "RMWPct<0 SyncReadPct=100 makes every sync op a Test",
			tweak: func(c *RandomConfig) { c.RMWPct = -1; c.SyncReadPct = 100 },
			check: func(t *testing.T, sl, ss, tas, faa int) {
				if ss+tas+faa != 0 || sl == 0 {
					t.Fatalf("mix = ld%d st%d tas%d faa%d, want sync reads only", sl, ss, tas, faa)
				}
			},
		},
		{
			name:  "RMWPct<0 SyncReadPct<0 makes every sync op an Unset",
			tweak: func(c *RandomConfig) { c.RMWPct = -1; c.SyncReadPct = -1 },
			check: func(t *testing.T, sl, ss, tas, faa int) {
				if sl+tas+faa != 0 || ss == 0 {
					t.Fatalf("mix = ld%d st%d tas%d faa%d, want sync writes only", sl, ss, tas, faa)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.tweak(&cfg)
			var sl, ss, tas, faa int
			for seed := int64(0); seed < 6; seed++ {
				a, b, c, d, _, _ := opCounts(Random(seed, cfg))
				sl, ss, tas, faa = sl+a, ss+b, tas+c, faa+d
			}
			tc.check(t, sl, ss, tas, faa)
		})
	}
}

// TestRandomCondPctEmitsForwardGuards checks the guarded-block knob: with
// CondPct at 100 every op slot opens with the consumer idiom (sync read, then
// a forward branch over data accesses), and the result is still a valid
// loop-free program.
func TestRandomCondPctEmitsForwardGuards(t *testing.T) {
	sawGuard := false
	for seed := int64(0); seed < 6; seed++ {
		p := Random(seed, RandomConfig{Procs: 2, Ops: 4, SyncDensity: 50, CondPct: 100})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, _, _, _, _, branches := opCounts(p)
		if branches > 0 {
			sawGuard = true
		}
		for ti, code := range p.Threads {
			for ii, in := range code {
				if in.Op == program.IBeq && in.Target <= ii {
					t.Fatalf("seed %d T%d@%d: guard branch must be forward (target %d)",
						seed, ti, ii, in.Target)
				}
			}
		}
	}
	if !sawGuard {
		t.Fatal("CondPct=100 emitted no guarded blocks across 6 seeds")
	}
}

// TestRandomLegacyStreamPinned is the regression guard for the generator's
// backward compatibility: with all mixer knobs zero the per-seed instruction
// stream must stay byte-identical to the original equal-thirds generator,
// because the deterministic experiment sweeps (experiments.Contract) assert
// violation counts at fixed seeds. The golden program below was captured from
// the pre-knob generator; if this test fails, a code change consumed rng
// draws differently on the legacy path.
func TestRandomLegacyStreamPinned(t *testing.T) {
	want := [][]string{
		{
			"st x100, 1",
			"ld r0, x100",
			"sync.ld r0, x200",
			"ld r3, x100",
			"halt",
		},
		{
			"sync.ld r1, x200",
			"sync.ld r3, x200",
			"sync.ld r3, x200",
			"sync.st x200, 2",
			"halt",
		},
	}
	for _, cfg := range []RandomConfig{
		{Procs: 2, DataVars: 2, SyncVars: 1, Ops: 4, SyncDensity: 35},
		// Negative CondPct normalizes to 0 and must not shift the stream.
		{Procs: 2, DataVars: 2, SyncVars: 1, Ops: 4, SyncDensity: 35, CondPct: -1},
	} {
		p := Random(7, cfg)
		if len(p.Threads) != len(want) {
			t.Fatalf("threads = %d, want %d", len(p.Threads), len(want))
		}
		for ti, code := range p.Threads {
			if len(code) != len(want[ti]) {
				t.Fatalf("thread %d has %d instrs, want %d — legacy rng stream shifted", ti, len(code), len(want[ti]))
			}
			for ii, in := range code {
				if got := in.String(); got != want[ti][ii] {
					t.Fatalf("T%d@%d: %q != %q — legacy rng stream shifted", ti, ii, got, want[ti][ii])
				}
			}
		}
	}
}

func TestRandomDRFIsDRF0(t *testing.T) {
	// By-construction race freedom, verified by the checker for a few
	// seeds. Kept small: lock spins explode history-keyed enumeration.
	for seed := int64(0); seed < 4; seed++ {
		p := RandomDRF(seed, 2, 1, 1)
		enum := &model.Enumerator{Prog: p, Explorer: &model.Explorer{MaxTraceOps: 16}}
		rep, err := core.CheckProgram(enum, core.DRF0{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Obeys() {
			t.Errorf("seed %d: RandomDRF program violates DRF0: %s", seed, rep)
		}
	}
}

func TestRandomGuardedIsDRF0(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := RandomGuarded(seed, 1+int(seed%3), int(seed%2))
		enum := &model.Enumerator{Prog: p, Explorer: &model.Explorer{}}
		rep, err := core.CheckProgram(enum, core.DRF0{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Obeys() {
			t.Errorf("seed %d: guarded program violates DRF0: %s", seed, rep)
		}
	}
}

func TestSpinKindStrings(t *testing.T) {
	if SpinSync.String() != "sync-spin" || SpinData.String() != "data-spin" || SpinTAS.String() != "tas-spin" {
		t.Error("spin kind strings wrong")
	}
}

func TestWorkloadLocationsDistinct(t *testing.T) {
	locs := []mem.Addr{locX, locS, locGo, locData, locFlag, locAck, locCount, locSense, locLock, locCtr}
	seen := map[mem.Addr]bool{}
	for _, a := range locs {
		if seen[a] {
			t.Fatalf("duplicate workload location %d", a)
		}
		seen[a] = true
	}
}
