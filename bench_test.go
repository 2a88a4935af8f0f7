// Benchmarks regenerating each experiment (one per figure/table of the
// reproduction; see DESIGN.md §3 and EXPERIMENTS.md) plus micro-benchmarks of
// the core machinery. Run with:
//
//	go test -bench=. -benchmem
package weakorder_test

import (
	"testing"

	"weakorder"
	"weakorder/internal/core"
	"weakorder/internal/digest"
	"weakorder/internal/experiments"
	"weakorder/internal/litmus"
	"weakorder/internal/machine"
	"weakorder/internal/mem"
	"weakorder/internal/model"
	"weakorder/internal/proc"
	"weakorder/internal/workload"
)

// BenchmarkFigure1 regenerates E1: the store-buffering violation across the
// four relaxed hardware configurations and SC.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if !s.SCForbids || s.Mismatches != 0 {
			b.Fatal("figure 1 regression")
		}
	}
}

// BenchmarkFigure2 regenerates E2: the DRF0 example and counterexample.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if !s.AObeys || s.BObeys {
			b.Fatal("figure 2 regression")
		}
	}
}

// BenchmarkFigure3 regenerates E3: the Definition-1 vs Definition-2 producer
// stall sweep on the timed machine.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if !s.Def1P0AlwaysSlower {
			b.Fatal("figure 3 regression")
		}
	}
}

// BenchmarkQuantitative regenerates E4: cycles/stalls/messages across
// workloads and policies.
func BenchmarkQuantitative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Quant()
		if err != nil {
			b.Fatal(err)
		}
		if !s.WeakNeverSlower {
			b.Fatal("quantitative regression")
		}
	}
}

// BenchmarkSpinRefinement regenerates E5: the Section-6 read-only-sync
// serialization comparison.
func BenchmarkSpinRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Spin()
		if err != nil {
			b.Fatal(err)
		}
		if !s.GetXReduced {
			b.Fatal("spin regression")
		}
	}
}

// BenchmarkContract regenerates E6 (reduced sweep size per iteration: the
// full 40-program sweep is the -run contract CLI's job).
func BenchmarkContract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Contract(8, 7)
		if err != nil {
			b.Fatal(err)
		}
		if s.Programs != 8 {
			b.Fatal("contract regression")
		}
	}
}

// BenchmarkFence regenerates E7: RP3 fence vs Definition 1 outcome equality.
func BenchmarkFence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fence()
		if err != nil {
			b.Fatal(err)
		}
		if !s.Equal {
			b.Fatal("fence regression")
		}
	}
}

// BenchmarkDelaySet regenerates E8: Shasha-Snir delay-set computation and
// enforcement on random branch-free programs.
func BenchmarkDelaySet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.DelaySet(10, 3)
		if err != nil {
			b.Fatal(err)
		}
		if s.Violations != 0 {
			b.Fatal("delay-set regression")
		}
	}
}

// BenchmarkConditions regenerates E9: Section-5.1 condition checking against
// timed-machine logs, including the ablation hunt.
func BenchmarkConditions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Conditions()
		if err != nil {
			b.Fatal(err)
		}
		if s.CleanViolations != 0 || !s.AblationCaught {
			b.Fatal("conditions regression")
		}
	}
}

// BenchmarkSweep regenerates E10: latency/fabric sensitivity of the
// Definition-1 vs Definition-2 comparison.
func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		if !s.GapGrowsWithLatency {
			b.Fatal("sweep regression")
		}
	}
}

// BenchmarkProtocol regenerates E11: write-invalidate vs write-update on the
// data path.
func BenchmarkProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Protocol()
		if err != nil {
			b.Fatal(err)
		}
		if !s.UpdateWinsProdCons || !s.InvalidateWinsStreaming {
			b.Fatal("protocol regression")
		}
	}
}

// --- Micro-benchmarks of the underlying machinery ---

// BenchmarkExploreSC measures exhaustive exploration of the idealized machine
// on the 4-thread IRIW litmus test.
func BenchmarkExploreSC(b *testing.B) {
	t, _ := litmus.ByName("iriw-data")
	x := &model.Explorer{}
	for i := 0; i < b.N; i++ {
		if _, err := x.Visit(model.NewSC(t.Prog), func(model.Machine) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreWODef2 measures exploration of the Section-5 machine on the
// TAS mutex test (spin loops, reservations).
func BenchmarkExploreWODef2(b *testing.B) {
	t, _ := litmus.ByName("tas-mutex")
	x := &model.Explorer{}
	for i := 0; i < b.N; i++ {
		if _, err := x.Visit(model.NewWODef2(t.Prog), func(model.Machine) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplorerKey measures the binary state-key encoding that memoizes
// exploration: one AppendKey into a reused buffer plus the 128-bit digest, the
// per-state cost on the Explorer hot path. The target is zero allocations per
// state once the buffer has grown to steady state.
func BenchmarkExplorerKey(b *testing.B) {
	t, _ := litmus.ByName("iriw-data")
	m := model.NewWODef2(t.Prog)
	// Walk a few transitions so the key covers non-initial machine state.
	for i := 0; i < 4; i++ {
		ts := m.Transitions(nil)
		if len(ts) == 0 {
			break
		}
		if err := m.Apply(ts[0]); err != nil {
			b.Fatal(err)
		}
	}
	var key []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = m.AppendKey(model.KeyState, key[:0])
		digest.Sum128(key)
	}
}

// BenchmarkHappensBefore measures po/so/hb construction on a synthetic
// 512-event execution.
func BenchmarkHappensBefore(b *testing.B) {
	e := mem.NewExecution(8)
	for i := 0; i < 512; i++ {
		p := mem.ProcID(i % 8)
		if i%16 == 0 {
			e.Append(mem.Access{Proc: p, Op: mem.OpSyncRMW, Addr: 1000, Value: mem.Value(i), WValue: mem.Value(i + 1)})
		} else {
			e.Append(mem.Access{Proc: p, Op: mem.OpWrite, Addr: mem.Addr(i % 32), Value: mem.Value(i)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildOrders(e, core.DRF0{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaceDetector measures core.CheckExecution's vector clocks on the
// same synthetic execution.
func BenchmarkRaceDetector(b *testing.B) {
	e := mem.NewExecution(8)
	for i := 0; i < 512; i++ {
		p := mem.ProcID(i % 8)
		if i%16 == 0 {
			e.Append(mem.Access{Proc: p, Op: mem.OpSyncRMW, Addr: 1000, Value: mem.Value(i), WValue: mem.Value(i + 1)})
		} else {
			e.Append(mem.Access{Proc: p, Op: mem.OpRead, Addr: mem.Addr(i % 4), Value: 0})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckExecution(e, core.DRF0{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCCheck measures the VSC replay search on a producer/consumer
// trace from the timed machine.
func BenchmarkSCCheck(b *testing.B) {
	p := workload.ProducerConsumer(6, 2)
	cfg := machine.NewConfig(proc.PolicyWODef2)
	cfg.RecordTrace = true
	res, err := machine.Run(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	init := make(map[mem.Addr]mem.Value)
	for a, v := range p.Init {
		init[a] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := core.SCCheck(res.Trace, init)
		if err != nil || !w.SC {
			b.Fatal("SCCheck regression")
		}
	}
}

// BenchmarkTimedLock measures the timed simulator on a contended lock.
func BenchmarkTimedLock(b *testing.B) {
	p := workload.Lock(4, 8, 10, 10, workload.SpinSync)
	for _, pol := range []proc.Policy{proc.PolicySC, proc.PolicyWODef1, proc.PolicyWODef2, proc.PolicyWODef2DRF1} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.Run(p, machine.NewConfig(pol)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimedBarrier measures the timed simulator on the spinning barrier.
func BenchmarkTimedBarrier(b *testing.B) {
	p := workload.Barrier(4, 6, 20, workload.SpinSync)
	for _, pol := range []proc.Policy{proc.PolicyWODef2, proc.PolicyWODef2DRF1} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.Run(p, machine.NewConfig(pol)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckDRF0 measures whole-program Definition-3 checking through the
// public facade.
func BenchmarkCheckDRF0(b *testing.B) {
	p := weakorder.MustParseProgram(`
name: mp
init: d=0 f=0
thread:
    st d, 1
    sync.st f, 1
thread:
wait:
    sync.ld r0, f
    beq r0, 0, wait
    ld r1, d
`).Program
	for i := 0; i < b.N; i++ {
		rep, err := weakorder.CheckDRF0(p)
		if err != nil || !rep.Obeys() {
			b.Fatal("CheckDRF0 regression")
		}
	}
}
