// Package proc implements the timed processor front-ends that sit on top of
// the coherence protocol in internal/cache. One Processor interprets one
// thread; the Policy decides where the processor stalls, which is exactly
// where the paper's definitions differ:
//
//   - PolicySC: an access issues only after the previous access is globally
//     performed (the Scheurich-Dubois sufficient condition for sequential
//     consistency).
//   - PolicyWODef1: data accesses overlap freely, but a synchronization
//     operation is not issued until all previous accesses are globally
//     performed, and nothing issues past it until it is globally performed
//     (Definition 1, conditions 2 and 3).
//   - PolicyWODef2: the Section-5.3 implementation — a synchronization
//     operation stalls its issuer only until it *commits* (the line is held
//     exclusively and modified); if the outstanding-access counter is
//     positive, the line is reserved, shifting the stall to the *next*
//     processor that synchronizes on the same location.
//   - PolicyWODef2DRF1: Definition 2 with the Section-6 refinement —
//     read-only synchronization operations issue as ordinary shared-copy
//     reads (not serialized, no reservation), still honoring existing
//     reservations at a remote owner.
package proc

import (
	"fmt"

	"weakorder/internal/cache"
	"weakorder/internal/conditions"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/program"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// Policy selects the ordering discipline of a processor.
type Policy uint8

const (
	// PolicySC is sequentially consistent hardware.
	PolicySC Policy = iota
	// PolicyWODef1 is weak ordering per Dubois/Scheurich/Briggs.
	PolicyWODef1
	// PolicyWODef2 is the paper's reserve-bit implementation.
	PolicyWODef2
	// PolicyWODef2DRF1 adds the Section-6 read-only-sync refinement.
	PolicyWODef2DRF1
	// PolicyWODef2NoReserve is the ablation of PolicyWODef2 with the
	// reserve-bit mechanism disabled: synchronization releases without
	// transferring the stall. The resulting hardware is NOT weakly ordered
	// w.r.t. DRF0; it exists so experiments can show the reserve bits are
	// what keep DRF0 programs sequentially consistent.
	PolicyWODef2NoReserve
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicySC:
		return "SC"
	case PolicyWODef1:
		return "WO-def1"
	case PolicyWODef2:
		return "WO-def2"
	case PolicyWODef2DRF1:
		return "WO-def2-drf1"
	case PolicyWODef2NoReserve:
		return "WO-def2-noreserve"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Tracer receives every architecturally completed access, in resolve order,
// for post-run consistency checking. The machine provides one shared tracer.
type Tracer interface {
	Record(a mem.Access, opIndex int)
}

// TimingSink receives each access's (issue, commit, perform) lifecycle for
// checking the Section-5.1 conditions (internal/conditions). Entries arrive
// at global-performance time, which may be after the issuing thread halted.
type TimingSink interface {
	RecordTiming(t conditions.AccessTiming)
}

// Processor drives one thread against a cache under a policy.
type Processor struct {
	ID     int
	Policy Policy

	engine *sim.Engine
	cache  *cache.Cache
	thread program.Thread
	tracer Tracer
	timing TimingSink
	// updateProto routes data writes through the write-update protocol
	// (cache.WriteUpdate) instead of invalidation-based exclusive
	// acquisition. Synchronization operations always use the exclusive
	// path — the Section-5.3 reserve machinery depends on ownership.
	updateProto bool

	// Stats: per-class stall cycles and op counts.
	Stats *stats.Counters

	// rec, when non-nil, receives cycle-attribution spans (compute, counter
	// and fence stalls, raw memory waits). Nil-safe hooks keep the metrics-off
	// path free.
	rec *metrics.Recorder

	done     bool
	finish   sim.Time
	onFinish func()

	// src, when non-nil, feeds the processor open-loop code fragments once
	// the initial thread halts (SetWorkload). opBase is the running count of
	// memory operations completed by finished fragments, so opIndex stays a
	// single contiguous per-processor sequence across fragments.
	src    Workload
	opBase int

	// Hot-path counter handles (see stats.Hot): each resolves on first
	// touch, so registration order and which counters exist are unchanged;
	// steady-state increments skip the string-map lookup.
	hLocal, hMshr, hReads, hReadStall, hWrites, hWriteStall stats.Hot
	hSyncs, hSyncCounter, hSyncLine, hSyncPerformed         stats.Hot

	// stepFn is p.step bound once at construction. Every scheduling site uses
	// this stored value: a fresh method-value expression (p.step) allocates a
	// closure per call, which on cache-hit spin loops was one of the largest
	// steady-state allocation sources.
	stepFn func()
	// freedFn and counterZeroFn are the cache wake-ups, bound the same way.
	// The thread waits on at most one of them at a time, so the wait's
	// start and request live in the processor instead of a closure.
	freedFn, counterZeroFn func()
	waitT0                 sim.Time
	waitReq                program.Request
}

// New builds a processor for one thread. tracer may be nil.
func New(id int, engine *sim.Engine, c *cache.Cache, code program.Code, policy Policy, tracer Tracer) *Processor {
	p := &Processor{
		ID:     id,
		Policy: policy,
		engine: engine,
		cache:  c,
		thread: program.NewThread(code),
		tracer: tracer,
		Stats:  stats.NewCounters(),
	}
	p.stepFn = p.step
	p.freedFn = p.mshrFreed
	p.counterZeroFn = p.counterZero
	return p
}

// SetTimingSink enables Section-5.1 lifecycle logging. Must be called before
// Start.
func (p *Processor) SetTimingSink(s TimingSink) { p.timing = s }

// SetUpdateProtocol switches data writes to the write-update protocol. Must
// be called before Start.
func (p *Processor) SetUpdateProtocol(on bool) { p.updateProto = on }

// SetMetrics attaches a cycle-observability recorder (nil to detach). Must be
// called before Start.
func (p *Processor) SetMetrics(rec *metrics.Recorder) { p.rec = rec }

// emitTiming reports one completed access lifecycle.
func (p *Processor) emitTiming(op mem.Op, addr mem.Addr, opIndex int, issue, commit, perform sim.Time) {
	if p.timing == nil {
		return
	}
	p.timing.RecordTiming(conditions.AccessTiming{
		Proc: p.ID, OpIndex: opIndex, Op: op, Addr: addr,
		Issue: issue, Commit: commit, Perform: perform,
	})
}

// Start schedules the processor's first step at the current time. onFinish
// runs once when the thread halts.
func (p *Processor) Start(onFinish func()) {
	p.onFinish = onFinish
	p.engine.After(0, p.stepFn)
}

// Done reports whether the thread has halted.
func (p *Processor) Done() bool { return p.done }

// Registers returns the thread's current register file (its final values once
// Done).
func (p *Processor) Registers() [program.NumRegs]mem.Value { return p.thread.Regs }

// FinishTime returns the cycle at which the thread halted.
func (p *Processor) FinishTime() sim.Time { return p.finish }

// record traces a completed access.
func (p *Processor) record(op mem.Op, addr mem.Addr, readV, writeV mem.Value) {
	if p.tracer == nil {
		return
	}
	a := mem.Access{Proc: mem.ProcID(p.ID), Op: op, Addr: addr}
	switch {
	case op == mem.OpSyncRMW:
		a.Value, a.WValue = readV, writeV
	case op.Writes():
		a.Value = writeV
	default:
		a.Value = readV
	}
	p.tracer.Record(a, p.opIndex())
}

// opIndex is the global program-order index the current (or just-resolving)
// memory operation carries: fragment-local OpIndex on top of the completed
// fragments' base.
func (p *Processor) opIndex() int { return p.opBase + p.thread.OpIndex }

// step advances the thread to its next stall point. The loop exists for the
// workload path: when a fragment halts and the next arrival is already due,
// the processor continues into it within the same event instead of recursing.
func (p *Processor) step() {
	if p.done {
		return
	}
	for {
		req, ok, err := p.thread.Pending()
		if err != nil {
			// A program fault such as a runaway local loop: the run fails
			// with the interpreter's error, like a workload-source error.
			p.engine.Fail(fmt.Errorf("proc: P%d thread: %w", p.ID, err))
			return
		}
		// Charge explicit local work (nop delays) accumulated on the way to
		// this stall point before issuing the operation or halting.
		if d := p.thread.TakeLocalWork(); d > 0 {
			p.hLocal.Add(p.Stats, "local_cycles", int64(d))
			p.rec.Compute(p.ID, p.engine.Now(), p.engine.Now()+sim.Time(d))
			p.engine.After(sim.Time(d), p.stepFn)
			return
		}
		if !ok {
			// Thread halted: with a workload attached this only ends the
			// current fragment — pull the next arrival.
			switch p.pull() {
			case pullNow:
				continue
			case pullLater:
				return
			}
			p.done = true
			p.finish = p.engine.Now()
			if p.onFinish != nil {
				p.onFinish()
			}
			return
		}
		// Same-address transaction in flight: preserve intra-processor
		// dependences (condition 1) by waiting for the MSHR.
		if p.cache.Busy(req.Addr) {
			p.waitT0, p.waitReq = p.engine.Now(), req
			p.cache.OnFree(req.Addr, p.freedFn)
			return
		}
		if req.Op.IsSync() {
			p.syncOp(req)
			return
		}
		if req.Op == mem.OpRead {
			p.dataRead(req)
			return
		}
		p.dataWrite(req)
		return
	}
}

// mshrFreed resumes a thread that waited for its own transaction on the same
// address to retire.
func (p *Processor) mshrFreed() {
	p.hMshr.Add(p.Stats, "mshr_stall_cycles", int64(p.engine.Now()-p.waitT0))
	p.rec.MemWait(p.ID, p.waitReq.Addr, false, p.waitT0, p.engine.Now())
	p.step()
}

// resume charges one hit latency (the pipeline cost of completing an access)
// and continues the thread. Cache callbacks are synchronous, so scheduling
// here is also what advances simulated time on cache-hit spin loops.
func (p *Processor) resume() {
	p.rec.Compute(p.ID, p.engine.Now(), p.engine.Now()+1)
	p.engine.After(1, p.stepFn)
}

func (p *Processor) dataRead(req program.Request) {
	t0 := p.engine.Now()
	opIdx := p.opIndex()
	p.hReads.Add(p.Stats, "reads", 1)
	if v, ok := p.cache.TryReadHit(req.Addr); ok {
		// Hit: AcquireSharedCtx would run LineCommitted synchronously at t0.
		// Completing inline replicates that callback's exact stat, metric,
		// timing, and resolve sequence without allocating the continuation —
		// this is the hottest issue path (spin loops polling a cached flag).
		p.hReadStall.Add(p.Stats, "read_stall_cycles", 0)
		p.rec.MemWait(p.ID, req.Addr, false, t0, t0)
		p.emitTiming(mem.OpRead, req.Addr, opIdx, t0, t0, t0)
		p.record(mem.OpRead, req.Addr, v, 0)
		p.thread.Resolve(v)
		p.resume()
		return
	}
	p.cache.AcquireSharedCtx(req.Addr, false, p,
		cache.IssueCtx{Kind: issueDataRead, Addr: req.Addr, OpIdx: opIdx, T0: t0})
}

func (p *Processor) dataWrite(req program.Request) {
	t0 := p.engine.Now()
	opIdx := p.opIndex()
	p.hWrites.Add(p.Stats, "writes", 1)
	if p.updateProto {
		p.updateWrite(req, t0, opIdx)
		return
	}
	if p.Policy == PolicySC {
		// Stall until globally performed: the sequentially consistent
		// processor never has more than one access outstanding.
		p.cache.AcquireExclusiveCtx(req.Addr, false, p,
			cache.IssueCtx{Kind: issueDataWriteSC, Addr: req.Addr, Data: req.Data, OpIdx: opIdx, T0: t0})
		return
	}
	// Weakly ordered processors fire and forget: the thread resolves
	// immediately; commit and global performance proceed in the background,
	// tracked by the cache's counter.
	v := req.Data
	a := req.Addr
	if _, ok := p.cache.TryExclusiveHit(a); ok {
		// Exclusive hit: commit and performance coincide, so the committed
		// and performed callbacks would both run synchronously here. Inline
		// them (same order: write, timing entry, trace, resolve) without
		// allocating either closure.
		p.cache.WriteLocal(a, v)
		p.emitTiming(mem.OpWrite, a, opIdx, t0, t0, t0)
		p.record(mem.OpWrite, a, 0, v)
		p.thread.Resolve(0)
		p.resume()
		return
	}
	p.cache.AcquireExclusiveCtx(a, false, p,
		cache.IssueCtx{Kind: issueDataWriteWO, Addr: a, Data: v, OpIdx: opIdx, T0: t0})
	p.record(mem.OpWrite, a, 0, v)
	p.thread.Resolve(0)
	p.resume()
}

// updateWrite issues a data write on the write-update protocol: the local
// copy commits immediately; global performance is the directory's
// acknowledgement after all sharers applied the update.
func (p *Processor) updateWrite(req program.Request, t0 sim.Time, opIdx int) {
	ctx := cache.IssueCtx{Kind: issueUpdateWO, Addr: req.Addr, Data: req.Data, OpIdx: opIdx, T0: t0, CommitT: p.engine.Now()}
	if p.Policy == PolicySC {
		ctx.Kind = issueUpdateSC
		p.cache.WriteUpdate(req.Addr, req.Data, p, ctx)
		return
	}
	p.cache.WriteUpdate(req.Addr, req.Data, p, ctx)
	p.record(mem.OpWrite, req.Addr, 0, req.Data)
	p.thread.Resolve(0)
	p.resume()
}

func (p *Processor) syncOp(req program.Request) {
	p.hSyncs.Add(p.Stats, "syncs", 1)
	switch p.Policy {
	case PolicySC:
		p.syncExclusive(req, true)
	case PolicyWODef1:
		// Condition 2 of Definition 1: wait for all previous accesses to be
		// globally performed before issuing the synchronization operation.
		p.waitT0, p.waitReq = p.engine.Now(), req
		p.cache.OnCounterZero(p.counterZeroFn)
	case PolicyWODef2, PolicyWODef2NoReserve:
		p.syncExclusive(req, false)
	case PolicyWODef2DRF1:
		if req.Op == mem.OpSyncRead {
			// Section 6: read-only synchronization is not serialized — it
			// issues as a shared-copy read (still flagged sync, so a
			// reserving owner stalls it).
			p.cache.AcquireSharedCtx(req.Addr, true, p, cache.IssueCtx{
				Kind: issueSyncRead, Op: req.Op, Addr: req.Addr, OpIdx: p.opIndex(), T0: p.engine.Now(),
			})
			return
		}
		p.syncExclusive(req, false)
	default:
		panic("proc: unknown policy")
	}
}

// counterZero issues a Definition-1 synchronization operation once every
// previous access is globally performed.
func (p *Processor) counterZero() {
	p.hSyncCounter.Add(p.Stats, "sync_counter_stall_cycles", int64(p.engine.Now()-p.waitT0))
	p.rec.CounterStall(p.ID, p.waitT0, p.engine.Now())
	// Condition 3: nothing issues past the sync until it is globally
	// performed, so stall through performance.
	p.syncExclusive(p.waitReq, true)
}

// syncExclusive performs a synchronization operation on an exclusively held
// line. When waitPerformed is set the thread stalls until the operation is
// globally performed (SC, Definition 1); otherwise it continues right after
// commit, reserving the line if the counter is positive (Definition 2 /
// Section 5.3).
func (p *Processor) syncExclusive(req program.Request, waitPerformed bool) {
	t0 := p.engine.Now()
	opIdx := p.opIndex()
	if cur, ok := p.cache.TryExclusiveHit(req.Addr); ok {
		p.syncHit(req, waitPerformed, t0, opIdx, cur)
		return
	}
	p.cache.AcquireExclusiveCtx(req.Addr, true, p, cache.IssueCtx{
		Kind: issueSync, Flag: waitPerformed, Op: req.Op, RMW: uint8(req.RMW),
		Addr: req.Addr, Data: req.Data, OpIdx: opIdx, T0: t0,
	})
}

// Issue-context discriminators for the IssueSink completion path: misses
// carry one of these in IssueCtx.Kind so LineCommitted/LinePerformed can
// replay the exact per-variant completion sequence the old continuation
// closures ran, without the per-miss closure allocations.
const (
	issueDataRead uint8 = iota
	issueDataWriteWO
	issueDataWriteSC
	issueSync
	issueSyncRead
	issueUpdateWO
	issueUpdateSC
)

// LineCommitted implements cache.IssueSink: the commit point of a miss
// issued with an IssueCtx (synchronous with line installation, like the
// committed/done callbacks it replaces).
func (p *Processor) LineCommitted(ctx *cache.IssueCtx, v mem.Value) {
	now := p.engine.Now()
	switch ctx.Kind {
	case issueDataRead:
		p.hReadStall.Add(p.Stats, "read_stall_cycles", int64(now-ctx.T0))
		p.rec.MemWait(p.ID, ctx.Addr, false, ctx.T0, now)
		p.emitTiming(mem.OpRead, ctx.Addr, ctx.OpIdx, ctx.T0, now, now)
		p.record(mem.OpRead, ctx.Addr, v, 0)
		p.thread.Resolve(v)
		p.resume()
	case issueSyncRead:
		p.hSyncLine.Add(p.Stats, "sync_line_stall_cycles", int64(now-ctx.T0))
		p.rec.MemWait(p.ID, ctx.Addr, true, ctx.T0, now)
		p.emitTiming(ctx.Op, ctx.Addr, ctx.OpIdx, ctx.T0, now, now)
		p.record(ctx.Op, ctx.Addr, v, 0)
		p.thread.Resolve(v)
		p.resume()
	case issueDataWriteWO, issueDataWriteSC:
		ctx.CommitT = now
		p.cache.WriteLocal(ctx.Addr, ctx.Data)
	case issueSync:
		ctx.Old, ctx.New, ctx.CommitT = v, v, now
		if ctx.Op.Writes() {
			req := program.Request{Op: ctx.Op, Addr: ctx.Addr, Data: ctx.Data, RMW: program.RMWKind(ctx.RMW)}
			ctx.New = req.NewValue(v)
			p.cache.WriteLocal(ctx.Addr, ctx.New)
		}
		if !ctx.Flag {
			p.rec.MemWait(p.ID, ctx.Addr, true, ctx.T0, ctx.CommitT)
			// Definition 2: commit is the release point for the issuer. The
			// reserve waits only on outstanding *ordinary* accesses: those
			// are the accesses previous to this operation that the next
			// synchronizer must observe, and — unlike synchronization
			// acquires, which can themselves be reserve-stalled at a peer —
			// they always complete, keeping the stall acyclic.
			if p.Policy != PolicyWODef2NoReserve && p.cache.DataCounter() > 0 {
				p.cache.Reserve(ctx.Addr)
			}
			p.hSyncLine.Add(p.Stats, "sync_line_stall_cycles", int64(p.engine.Now()-ctx.T0))
			p.record(ctx.Op, ctx.Addr, ctx.Old, ctx.New)
			p.thread.Resolve(ctx.Old)
			p.resume()
		}
	}
}

// LinePerformed implements cache.IssueSink: global performance of an
// exclusive miss issued with an IssueCtx (the performed callback it
// replaces).
func (p *Processor) LinePerformed(ctx *cache.IssueCtx) {
	now := p.engine.Now()
	switch ctx.Kind {
	case issueDataWriteWO:
		p.emitTiming(mem.OpWrite, ctx.Addr, ctx.OpIdx, ctx.T0, ctx.CommitT, now)
	case issueDataWriteSC:
		p.hWriteStall.Add(p.Stats, "write_stall_cycles", int64(now-ctx.T0))
		p.rec.MemWait(p.ID, ctx.Addr, false, ctx.T0, ctx.CommitT)
		p.rec.FenceStall(p.ID, ctx.CommitT, now)
		p.emitTiming(mem.OpWrite, ctx.Addr, ctx.OpIdx, ctx.T0, ctx.CommitT, now)
		p.record(mem.OpWrite, ctx.Addr, 0, ctx.Data)
		p.thread.Resolve(0)
		p.resume()
	case issueUpdateWO:
		p.emitTiming(mem.OpWrite, ctx.Addr, ctx.OpIdx, ctx.T0, ctx.CommitT, now)
	case issueUpdateSC:
		p.hWriteStall.Add(p.Stats, "write_stall_cycles", int64(now-ctx.T0))
		p.rec.FenceStall(p.ID, ctx.CommitT, now)
		p.emitTiming(mem.OpWrite, ctx.Addr, ctx.OpIdx, ctx.T0, ctx.CommitT, now)
		p.record(mem.OpWrite, ctx.Addr, 0, ctx.Data)
		p.thread.Resolve(0)
		p.resume()
	case issueSync:
		p.emitTiming(ctx.Op, ctx.Addr, ctx.OpIdx, ctx.T0, ctx.CommitT, now)
		if ctx.Flag {
			p.rec.MemWait(p.ID, ctx.Addr, true, ctx.T0, ctx.CommitT)
			p.rec.FenceStall(p.ID, ctx.CommitT, p.engine.Now())
			p.hSyncPerformed.Add(p.Stats, "sync_performed_stall_cycles", int64(p.engine.Now()-ctx.T0))
			p.record(ctx.Op, ctx.Addr, ctx.Old, ctx.New)
			p.thread.Resolve(ctx.Old)
			p.resume()
		}
	}
}

// syncHit completes a synchronization operation whose line was already held
// Exclusive. It replicates the committed→performed callback sequence of
// syncExclusive on a hit exactly — same stat registrations, metric spans,
// timing-entry order, and resolve point — without allocating the two
// continuation closures; that pair dominated steady-state allocation on
// sync spin loops. On a hit, issue, commit, and performance coincide at t0.
func (p *Processor) syncHit(req program.Request, waitPerformed bool, t0 sim.Time, opIdx int, cur mem.Value) {
	old, newV := cur, cur
	if req.Op.Writes() {
		newV = req.NewValue(cur)
		p.cache.WriteLocal(req.Addr, newV)
	}
	if !waitPerformed {
		p.rec.MemWait(p.ID, req.Addr, true, t0, t0)
		if p.Policy != PolicyWODef2NoReserve && p.cache.DataCounter() > 0 {
			p.cache.Reserve(req.Addr)
		}
		p.hSyncLine.Add(p.Stats, "sync_line_stall_cycles", 0)
		p.record(req.Op, req.Addr, old, newV)
		p.thread.Resolve(old)
		p.resume()
		// The performed callback runs after committed returns, so the timing
		// entry lands after the resolve, exactly as on the closure path.
		p.emitTiming(req.Op, req.Addr, opIdx, t0, t0, t0)
		return
	}
	p.emitTiming(req.Op, req.Addr, opIdx, t0, t0, t0)
	p.rec.MemWait(p.ID, req.Addr, true, t0, t0)
	p.rec.FenceStall(p.ID, t0, t0)
	p.hSyncPerformed.Add(p.Stats, "sync_performed_stall_cycles", 0)
	p.record(req.Op, req.Addr, old, newV)
	p.thread.Resolve(old)
	p.resume()
}
