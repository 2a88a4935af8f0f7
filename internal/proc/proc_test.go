package proc

import (
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/program"
	"weakorder/internal/sim"
)

// rig assembles n processors with caches and a directory on one network.
type rig struct {
	engine *sim.Engine
	procs  []*Processor
	caches []*cache.Cache
}

type traceRec struct {
	a   mem.Access
	idx int
}

type recorder struct{ recs []traceRec }

func (r *recorder) Record(a mem.Access, opIndex int) {
	r.recs = append(r.recs, traceRec{a, opIndex})
}

func newRig(t *testing.T, codes []program.Code, pol Policy, init map[mem.Addr]mem.Value, tr Tracer) *rig {
	t.Helper()
	e := sim.NewEngine(10_000_000, 10_000_000)
	net := interconnect.NewNetwork(e, 5, 0, nil, true)
	dirID := interconnect.NodeID(len(codes))
	msgs := new(cache.MsgPool)
	cache.NewDirectory(dirID, e, net, msgs, 1, init)
	r := &rig{engine: e}
	for i, code := range codes {
		c := cache.New(interconnect.NodeID(i), e, net, msgs, dirID, 1)
		r.caches = append(r.caches, c)
		r.procs = append(r.procs, New(i, e, c, code, pol, tr))
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	for _, p := range r.procs {
		p.Start(nil)
	}
	if err := r.engine.Run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, p := range r.procs {
		if !p.Done() {
			t.Fatalf("P%d never finished", i)
		}
	}
}

// producerRelease is W(x)=1 then Unset(s)=1 — the Figure-3 producer with a
// payload write whose performance is slowed by a sharer. The leading nop lets
// the warm reader's GetS reach the directory first, so the payload write
// really does have an invalidation outstanding when the release commits.
func producerRelease() program.Code {
	return program.Code{
		{Op: program.INop, Delay: 20},
		{Op: program.IStore, Addr: 0, Src: program.Imm(1)},
		{Op: program.ISyncStore, Addr: 1, Src: program.Imm(1)},
		{Op: program.IHalt},
	}
}

// warmReader shares line 0 so the producer's write needs an invalidation.
func warmReader() program.Code {
	return program.Code{
		{Op: program.ILoad, Rd: 0, Addr: 0},
		{Op: program.IHalt},
	}
}

func TestDef1StallsAtSync(t *testing.T) {
	r := newRig(t, []program.Code{producerRelease(), warmReader()}, PolicyWODef1, nil, nil)
	r.run(t)
	st := r.procs[0].Stats
	if st.Get("sync_counter_stall_cycles") == 0 {
		t.Error("Definition-1 producer should stall at the sync waiting for its counter")
	}
}

func TestDef2DoesNotStallAtSync(t *testing.T) {
	r := newRig(t, []program.Code{producerRelease(), warmReader()}, PolicyWODef2, nil, nil)
	r.run(t)
	st := r.procs[0].Stats
	if st.Get("sync_counter_stall_cycles") != 0 {
		t.Error("Definition-2 producer must never wait on its own counter")
	}
	// The sync commit should have reserved the line (counter positive while
	// the payload write's invalidation is outstanding).
	found := false
	for _, c := range r.caches {
		if c.Stats.Get("reserves_set") > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no reserve bit was set")
	}
}

func TestSCWritesStallUntilPerformed(t *testing.T) {
	// Under SC the producer's write stall includes the invalidation round
	// trip; under Def2 the write is fire-and-forget.
	sc := newRig(t, []program.Code{producerRelease(), warmReader()}, PolicySC, nil, nil)
	sc.run(t)
	d2 := newRig(t, []program.Code{producerRelease(), warmReader()}, PolicyWODef2, nil, nil)
	d2.run(t)
	if sc.procs[0].Stats.Get("write_stall_cycles") == 0 {
		t.Error("SC write should stall")
	}
	if d2.procs[0].Stats.Get("write_stall_cycles") != 0 {
		t.Error("Def2 write should not stall")
	}
	if d2.procs[0].FinishTime() >= sc.procs[0].FinishTime() {
		t.Errorf("def2 producer (%d) should finish before SC producer (%d)",
			d2.procs[0].FinishTime(), sc.procs[0].FinishTime())
	}
}

func TestDRF1SyncReadHitsShared(t *testing.T) {
	// A Test loop on a flag another processor eventually sets: under DRF1
	// the spinning reads hit a shared copy; under plain Def2 every Test is
	// an exclusive acquisition (write misses).
	spinner := program.Code{
		{Op: program.ISyncLoad, Rd: 0, Addr: 0},                   // Test
		{Op: program.IBeq, Ra: 0, Src: program.Imm(0), Target: 0}, // retry
		{Op: program.IHalt},
	}
	setter := program.Code{
		{Op: program.INop, Delay: 200},
		{Op: program.ISyncStore, Addr: 0, Src: program.Imm(1)},
		{Op: program.IHalt},
	}
	drf1 := newRig(t, []program.Code{spinner, setter}, PolicyWODef2DRF1, nil, nil)
	drf1.run(t)
	plain := newRig(t, []program.Code{spinner, setter}, PolicyWODef2, nil, nil)
	plain.run(t)
	if h := drf1.caches[0].Stats.Get("hits"); h == 0 {
		t.Error("DRF1 spinner should hit its shared copy")
	}
	if wm := drf1.caches[0].Stats.Get("write_misses"); wm != 0 {
		t.Errorf("DRF1 spinner issued %d exclusive acquisitions for Tests", wm)
	}
	if wm := plain.caches[0].Stats.Get("write_misses"); wm == 0 {
		t.Error("plain Def2 spinner should acquire exclusively")
	}
}

func TestTraceRecordsProgramOrderIndices(t *testing.T) {
	rec := &recorder{}
	code := program.Code{
		{Op: program.IStore, Addr: 0, Src: program.Imm(1)},
		{Op: program.ILoad, Rd: 0, Addr: 2},
		{Op: program.ISyncRMW, Rd: 1, Addr: 3, Src: program.Imm(1), RMW: program.RMWSet},
		{Op: program.IHalt},
	}
	r := newRig(t, []program.Code{code}, PolicyWODef2, nil, rec)
	r.run(t)
	if len(rec.recs) != 3 {
		t.Fatalf("recorded %d accesses, want 3", len(rec.recs))
	}
	for i, tr := range rec.recs {
		if tr.idx != i {
			t.Errorf("access %d recorded with op index %d", i, tr.idx)
		}
	}
	if rec.recs[2].a.Op != mem.OpSyncRMW || rec.recs[2].a.WValue != 1 {
		t.Errorf("RMW recorded wrong: %+v", rec.recs[2].a)
	}
}

func TestRMWReturnsOldValue(t *testing.T) {
	code := program.Code{
		{Op: program.ISyncRMW, Rd: 0, Addr: 0, Src: program.Imm(9), RMW: program.RMWSet},
		{Op: program.ISyncRMW, Rd: 1, Addr: 0, Src: program.Imm(5), RMW: program.RMWAdd},
		{Op: program.IHalt},
	}
	r := newRig(t, []program.Code{code}, PolicySC, map[mem.Addr]mem.Value{0: 3}, nil)
	r.run(t)
	regs := r.procs[0].Registers()
	if regs[0] != 3 || regs[1] != 9 {
		t.Errorf("regs = %v, want old values 3 and 9", regs[:2])
	}
}

func TestNoReservePolicySkipsReservation(t *testing.T) {
	r := newRig(t, []program.Code{producerRelease(), warmReader()}, PolicyWODef2NoReserve, nil, nil)
	r.run(t)
	for _, c := range r.caches {
		if c.Stats.Get("reserves_set") != 0 {
			t.Error("the no-reserve ablation must never set reserve bits")
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicySC:              "SC",
		PolicyWODef1:          "WO-def1",
		PolicyWODef2:          "WO-def2",
		PolicyWODef2DRF1:      "WO-def2-drf1",
		PolicyWODef2NoReserve: "WO-def2-noreserve",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}
