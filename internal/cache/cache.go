package cache

import (
	"fmt"
	"slices"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// LineState is a cache line's coherence state.
type LineState uint8

const (
	// Invalid: no copy.
	Invalid LineState = iota
	// Shared: clean read-only copy; other caches may also hold it.
	Shared
	// Exclusive: the only copy, writable (dirty).
	Exclusive
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	default:
		return "?"
	}
}

// line is one cached line, including the Section-5.3 reserve bit.
type line struct {
	state    LineState
	value    mem.Value
	reserved bool
	// epoch is the directory transaction that granted this copy. Every
	// later directory message for the line carries a strictly greater
	// epoch, so a forward or invalidation tagged with epoch <= this one is
	// a duplicated or delayed fabric artifact, not a protocol event.
	epoch uint64
}

// addrState is everything a cache keeps for one address: the cached copy
// (state Invalid when none is held), the outstanding transaction (nil when
// idle) and the forwards parked behind it. A record is created on the
// address's first miss and reused for the cache's lifetime, so a fill
// rewrites the line in place and parking reuses the slice.
type addrState struct {
	line
	m      *mshr
	parked []stalledFwd
}

// mshr tracks one outstanding transaction for an address. Retired MSHRs
// return to the cache's free list; timers that outlive a transaction
// identify it by seq, never by the recycled pointer.
type mshr struct {
	exclusive    bool // GetX (else GetS)
	sync         bool // synchronization access (not counted by dataCounter)
	update       bool // UpdateReq (write-update protocol)
	dataArrived  bool
	performed    bool // WriteAck (or Performed Data) received
	invWhilePend bool // an Inv overtook our pending read: don't install
	// hasOverride marks override as a newer value delivered by a MsgUpdate
	// that overtook our pending fill (non-FIFO fabrics): the fill installs
	// it instead of the stale Data payload.
	hasOverride bool
	override    mem.Value
	value       mem.Value
	excl        bool
	// seq is the transaction number stamped on the request; responses must
	// echo it or be discarded as stale.
	seq uint64
	// req is the request message, kept for retransmission.
	req Msg
	// attempts counts retransmissions (timeout- or NACK-triggered).
	attempts int
	// issuer receives the completion callbacks: the cache calls
	// LineCommitted at commit (Data arrival; for reads, value binding) and
	// LinePerformed at global performance (exclusive transactions only),
	// with a pointer to ictx, the issuer's per-access context stored by
	// value in the MSHR. A nil issuer (a write-update with no waiter) gets
	// no callbacks.
	issuer IssueSink
	ictx   IssueCtx
	// free callbacks waiting for the MSHR to clear; the slice's array is
	// kept when the MSHR is recycled.
	onFree []func()
}

// IssueCtx is the per-access context an IssueSink stores in the MSHR when
// issuing a miss through AcquireSharedCtx, AcquireExclusiveCtx or
// WriteUpdate. The cache
// treats every field as opaque issuer scratch: it copies the context into
// the MSHR at issue time and hands a pointer to that copy back at commit and
// performance time, so the issuer keeps per-transaction state (timestamps,
// operand values) without capturing it in closures.
type IssueCtx struct {
	Kind  uint8 // issuer-defined discriminator
	Flag  bool  // issuer-defined (e.g. stall-until-performed)
	RMW   uint8 // issuer-defined RMW function selector
	Op    mem.Op
	OpIdx int
	Addr  mem.Addr
	Data  mem.Value // write payload / RMW operand
	T0    sim.Time  // issue time
	// Scratch the issuer fills between commit and performance.
	CommitT sim.Time
	Old     mem.Value
	New     mem.Value
}

// IssueSink receives completion callbacks for accesses issued with an
// IssueCtx. LineCommitted runs synchronously with line installation (or with
// the hit); LinePerformed runs at global performance and fires for exclusive
// transactions only.
type IssueSink interface {
	LineCommitted(ctx *IssueCtx, v mem.Value)
	LinePerformed(ctx *IssueCtx)
}

// satisfied reports whether the transaction no longer needs its request
// retransmitted: reads and invalidation-protocol writes once Data arrived
// (performance rides on WriteAck, which the fault model never drops), updates
// once the directory acknowledged.
func (m *mshr) satisfied() bool {
	if m.update {
		return m.performed
	}
	return m.dataArrived
}

// Cache is one processor's cache and weak-ordering bookkeeping.
type Cache struct {
	ID     interconnect.NodeID
	engine *sim.Engine
	fabric interconnect.Fabric
	dir    interconnect.NodeID
	// dirShards spreads the home directory over dirShards nodes starting at
	// dir; every message for address a goes to dir + ShardOf(a, dirShards).
	// The default 1 is the classic single home node.
	dirShards int
	hitLat    sim.Time
	msgs      *MsgPool

	addrs map[mem.Addr]*addrState
	// lastAddr/lastState memoize the latest lookup: an access probes,
	// commits and reserves the same address in a row, and records are never
	// removed, so the memo cannot go stale.
	lastAddr  mem.Addr
	lastState *addrState
	// freeMSHRs holds retired MSHRs for reuse by later misses.
	freeMSHRs []*mshr
	// reservedScratch collects reserved addresses when the ordinary-access
	// counter reads zero.
	reservedScratch []mem.Addr

	// lenient tolerates messages explainable as fabric faults (duplicates,
	// stale responses) by ignoring them with a counted stat instead of
	// raising ErrProtocol. Set by the machine when fault injection is on;
	// the default strict mode treats every unexplained message as a bug.
	lenient bool
	// retryTimeout/retryLimit enable bounded request retransmission with
	// exponential backoff: attempt k is resent retryTimeout<<k cycles after
	// the previous one, up to retryLimit resends. Zero timeout disables
	// retransmission (the fault-free default: no timers, no extra events).
	retryTimeout sim.Time
	retryLimit   int
	// seq numbers outgoing transactions (starting at 1 so a zero Seq stays
	// "untagged" for hand-crafted messages in tests).
	seq uint64

	// counter is the paper's outstanding-access counter: incremented on
	// every miss sent, decremented when the transaction's data has arrived
	// (reads) or the access is globally performed (writes/syncs).
	//
	// dataCounter counts only the *ordinary* (non-synchronization) subset.
	// The Section-5.3 reserve machinery must key off this one: a reserve bit
	// guarantees that accesses previous to the reserving synchronization
	// operation are performed before the line is handed over, and those can
	// only be held up by ordinary accesses — which always complete
	// independently, because data forwards are never reserve-stalled. Waiting
	// for the full counter instead deadlocks: a processor that releases lock
	// A and then acquires lock B keeps its own counter positive with the
	// outstanding acquire, which may itself be reserve-stalled at a peer
	// doing the mirror-image release/acquire — a cross reserve-stall cycle
	// neither counter-zero event can break. (Found by the chaos sweep; it is
	// reachable fault-free with adverse network timing.)
	counter       int
	dataCounter   int
	onCounterZero []func()

	// stalledFwds queues remote synchronization requests (forwarded by the
	// directory) that hit a reserved line; they are serviced when the
	// ordinary-access counter reads zero (Section 5.3's stalled-request
	// queue). Forwards that arrive before our own Data for the same line are
	// parked on the line's addrState instead (message-race guard).
	stalledFwds []stalledFwd

	// Stats counts hits, misses, reserve stalls, etc.
	Stats *stats.Counters

	// Hot-path counter handles (see stats.Hot).
	hHits, hReadMiss, hWriteMiss stats.Hot

	// ictxScratch backs the hit arms of the Ctx issue paths: the context is
	// copied here (the Cache is already heap-resident) so the callback can
	// take a pointer without forcing the caller's stack value to escape.
	ictxScratch IssueCtx

	// rec, when non-nil, receives cycle-observability events (reserve-bit
	// set/clear, reserve-stall spans, retry-backoff windows). Every hook is
	// nil-safe, so the fault-free fast path pays nothing when metrics are off.
	rec *metrics.Recorder
}

type stalledFwd struct {
	src   interconnect.NodeID
	msg   Msg
	since sim.Time // arrival time, for reserve-stall span attribution
}

// New builds a cache attached to the fabric, sending from and recycling into
// the machine's message pool msgs.
func New(id interconnect.NodeID, engine *sim.Engine, fabric interconnect.Fabric, msgs *MsgPool, dir interconnect.NodeID, hitLat sim.Time) *Cache {
	if hitLat < 1 {
		hitLat = 1
	}
	c := &Cache{
		ID:        id,
		engine:    engine,
		fabric:    fabric,
		msgs:      msgs,
		dir:       dir,
		dirShards: 1,
		hitLat:    hitLat,
		addrs:     make(map[mem.Addr]*addrState),
		Stats:     stats.NewCounters(),
	}
	fabric.Attach(id, c)
	return c
}

// send hands a message to the fabric in a pooled record.
func (c *Cache) send(dst interconnect.NodeID, m Msg) { c.msgs.send(c.fabric, c.ID, dst, m) }

// lookup returns the address's record, or nil before its first miss.
func (c *Cache) lookup(a mem.Addr) *addrState {
	if c.lastState != nil && c.lastAddr == a {
		return c.lastState
	}
	st := c.addrs[a]
	if st != nil {
		c.lastAddr, c.lastState = a, st
	}
	return st
}

// slot returns the address's record, creating it on first use.
func (c *Cache) slot(a mem.Addr) *addrState {
	st := c.lookup(a)
	if st == nil {
		st = &addrState{}
		c.addrs[a] = st
	}
	return st
}

// copyOf returns the cached copy of a, or nil when none is held.
func (c *Cache) copyOf(a mem.Addr) *line {
	if st := c.lookup(a); st != nil && st.state != Invalid {
		return &st.line
	}
	return nil
}

// mshrOf returns the outstanding transaction for a, or nil.
func (c *Cache) mshrOf(a mem.Addr) *mshr {
	if st := c.lookup(a); st != nil {
		return st.m
	}
	return nil
}

// openMSHR starts transaction m on the address of st, in a recycled MSHR.
func (c *Cache) openMSHR(st *addrState, m mshr) *mshr {
	var r *mshr
	if n := len(c.freeMSHRs); n > 0 {
		r = c.freeMSHRs[n-1]
		c.freeMSHRs = c.freeMSHRs[:n-1]
		m.onFree = r.onFree[:0]
	} else {
		r = new(mshr)
	}
	*r = m
	st.m = r
	return r
}

// runAll runs fns in order and returns the emptied slice for reuse. The
// caller detaches fns from where callbacks register first, so a callback
// registered while they run lands in a new list, not in fns.
func runAll(fns []func()) []func() {
	for _, fn := range fns {
		fn()
	}
	clear(fns)
	return fns[:0]
}

// SetDirShards tells the cache the home directory is sharded over n nodes
// (dir..dir+n-1); requests and replies route by ShardOf. Must be set before
// the first access.
func (c *Cache) SetDirShards(n int) {
	if n < 1 {
		n = 1
	}
	c.dirShards = n
}

// dirFor returns the home node for an address.
func (c *Cache) dirFor(a mem.Addr) interconnect.NodeID {
	if c.dirShards == 1 {
		return c.dir
	}
	return c.dir + interconnect.NodeID(ShardOf(a, c.dirShards))
}

// SetLenient switches the cache into fault-tolerant mode: messages
// explainable as fabric artifacts (duplicates, stale responses, stale
// forwards) are counted and dropped instead of raising ErrProtocol.
func (c *Cache) SetLenient(on bool) { c.lenient = on }

// SetRetry enables bounded request retransmission: a request unanswered for
// timeout<<k cycles is resent (attempt k), up to limit resends, after which
// the run fails with ErrRetryExhausted. Must be set before the first access.
func (c *Cache) SetRetry(timeout sim.Time, limit int) {
	c.retryTimeout = timeout
	c.retryLimit = limit
}

// SetMetrics attaches a cycle-observability recorder (nil to detach).
func (c *Cache) SetMetrics(rec *metrics.Recorder) { c.rec = rec }

// maxBackoffShift bounds the exponential-backoff exponent: past it the
// backoff saturates instead of doubling. Without the bound, attempt counts
// beyond ~55 shift retryTimeout past the sign bit and the negative delay
// panics the engine ("schedule before now") — reachable whenever the retry
// budget is configured high under a heavy drop rate.
const maxBackoffShift = 16

// maxBackoffTotal caps any single backoff (and, transitively, the budget sum
// in BackoffBudget) so arithmetic on deadlines can never overflow sim.Time.
const maxBackoffTotal = sim.Time(1) << 40

// backoffFor returns the clamped exponential backoff for one attempt:
// timeout << min(attempts, maxBackoffShift), saturating at maxBackoffTotal.
func backoffFor(timeout sim.Time, attempts int) sim.Time {
	if timeout <= 0 {
		return 0
	}
	if timeout >= maxBackoffTotal {
		return maxBackoffTotal
	}
	shift := attempts
	if shift < 0 {
		shift = 0
	}
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	b := timeout << uint(shift)
	if b <= 0 || b > maxBackoffTotal {
		return maxBackoffTotal
	}
	return b
}

// backoff returns this cache's clamped backoff for the given attempt count.
func (c *Cache) backoff(attempts int) sim.Time { return backoffFor(c.retryTimeout, attempts) }

// BackoffBudget returns the worst-case total time a requester can legally
// spend sleeping in its retransmission schedule: the sum of every clamped
// backoff across the full retry budget. The directory watchdog must extend
// its deadline by at least this much, or it will condemn a transaction whose
// requester is merely sleeping between attempts.
func BackoffBudget(timeout sim.Time, limit int) sim.Time {
	var total sim.Time
	for k := 0; k <= limit+1; k++ {
		total += backoffFor(timeout, k)
		if total >= maxBackoffTotal {
			return maxBackoffTotal
		}
	}
	return total
}

// fail aborts the simulation with a ProtocolError detected by this cache.
func (c *Cache) fail(kind error, format string, args ...interface{}) {
	c.engine.Fail(&ProtocolError{
		Node: c.ID, Cycle: c.engine.Now(), Reason: fmt.Sprintf(format, args...), Kind: kind,
	})
}

// failMsg aborts the simulation with a ProtocolError triggered by a message.
func (c *Cache) failMsg(src interconnect.NodeID, msg Msg, format string, args ...interface{}) {
	c.engine.Fail(&ProtocolError{
		Node: c.ID, Cycle: c.engine.Now(), Msg: msg, HasMsg: true, From: src,
		Reason: fmt.Sprintf(format, args...),
	})
}

// tolerate handles a message that is only explainable as a fabric fault:
// in lenient mode it is counted and dropped (returning true); in strict mode
// the run fails with a ProtocolError (returning false).
func (c *Cache) tolerate(stat string, src interconnect.NodeID, msg Msg, format string, args ...interface{}) bool {
	if c.lenient {
		c.Stats.Add("tolerated_"+stat, 1)
		return true
	}
	c.failMsg(src, msg, format, args...)
	return false
}

// Counter returns the outstanding-access counter (all access classes).
func (c *Cache) Counter() int { return c.counter }

// DataCounter returns the outstanding *ordinary* access counter — the one the
// reserve machinery keys off (see the field comment for why synchronization
// accesses must not be counted there).
func (c *Cache) DataCounter() int { return c.dataCounter }

// OnCounterZero registers fn to run when the counter reads zero (immediately
// if it already does).
func (c *Cache) OnCounterZero(fn func()) {
	if c.counter == 0 {
		fn()
		return
	}
	c.onCounterZero = append(c.onCounterZero, fn)
}

// Busy reports whether an outstanding transaction exists for the address.
func (c *Cache) Busy(a mem.Addr) bool { return c.mshrOf(a) != nil }

// OnFree registers fn to run when the address's MSHR clears (immediately if
// free).
func (c *Cache) OnFree(a mem.Addr, fn func()) {
	m := c.mshrOf(a)
	if m == nil {
		fn()
		return
	}
	m.onFree = append(m.onFree, fn)
}

// State returns the line's current state (Invalid if absent).
func (c *Cache) State(a mem.Addr) LineState {
	if st := c.lookup(a); st != nil {
		return st.state
	}
	return Invalid
}

// incCounter / decCounter maintain the paper's counters and fire zero-events.
// sync tells whether the access is a synchronization access, which is counted
// by the full counter only (see the dataCounter field comment).
func (c *Cache) incCounter(sync bool) {
	c.counter++
	if !sync {
		c.dataCounter++
	}
}

func (c *Cache) decCounter(sync bool) {
	c.counter--
	if c.counter < 0 {
		c.fail(nil, "outstanding-access counter went negative")
		c.counter = 0
		c.dataCounter = 0
		return
	}
	if !sync {
		c.dataCounter--
		if c.dataCounter < 0 {
			c.fail(nil, "ordinary-access counter went negative")
			c.dataCounter = 0
			return
		}
		if c.dataCounter == 0 {
			// "All reserve bits are reset when the counter reads zero" — the
			// counter of accesses a reserve can be waiting on, i.e. ordinary
			// ones. Cleared in address order so the recorded clear events (and
			// with them the exported timeline) are deterministic.
			reserved := c.reservedScratch[:0]
			for a, st := range c.addrs {
				if st.reserved {
					reserved = append(reserved, a)
				}
			}
			slices.Sort(reserved)
			for _, a := range reserved {
				c.addrs[a].reserved = false
				c.rec.ReserveCleared(int(c.ID), a)
			}
			c.reservedScratch = reserved
			// Service remote synchronization requests stalled on reserve
			// bits. Servicing never stalls again, so the queue stays empty
			// while the detached batch drains and its array is reused.
			stalled := c.stalledFwds
			c.stalledFwds = nil
			for _, s := range stalled {
				c.rec.ReserveStalled(int(s.msg.Requester), s.msg.Addr, s.since, c.engine.Now())
				c.serviceFwd(s.src, s.msg)
			}
			if c.stalledFwds == nil {
				c.stalledFwds = stalled[:0]
			}
		}
	}
	if c.counter == 0 {
		// Definition 1's issue condition waits on *all* previous accesses.
		cbs := c.onCounterZero
		c.onCounterZero = nil
		cbs = runAll(cbs)
		if c.onCounterZero == nil {
			c.onCounterZero = cbs
		}
	}
}

// sendRequest stamps, records and sends a request, arming the retransmission
// timer when retry is enabled.
func (c *Cache) sendRequest(a mem.Addr, m *mshr, msg Msg) {
	c.seq++
	m.seq = c.seq
	msg.Seq = c.seq
	m.req = msg
	c.send(c.dirFor(a), msg)
	c.armRetry(a, m)
}

// armRetry schedules the next retransmission check for the MSHR's request.
func (c *Cache) armRetry(a mem.Addr, m *mshr) {
	if c.retryTimeout <= 0 {
		return
	}
	seq := m.seq
	c.engine.After(c.backoff(m.attempts), func() { c.retryCheck(a, seq) })
}

// retryCheck fires when a retransmission timer expires: if transaction seq is
// still outstanding and unanswered, the request is resent with exponential
// backoff; past the bounded budget the run fails with ErrRetryExhausted.
func (c *Cache) retryCheck(a mem.Addr, seq uint64) {
	m := c.mshrOf(a)
	if m == nil || m.seq != seq || m.satisfied() {
		return // answered (or retired) in the meantime
	}
	c.resendRequest(a, m)
}

// resendRequest performs one bounded retransmission attempt.
func (c *Cache) resendRequest(a mem.Addr, m *mshr) {
	m.attempts++
	if m.attempts > c.retryLimit {
		c.fail(ErrRetryExhausted, "%s for x%d unanswered after %d attempts (seq %d)",
			m.req.Kind, a, m.attempts, m.seq)
		return
	}
	c.Stats.Add("request_retries", 1)
	c.send(c.dirFor(a), m.req)
	c.armRetry(a, m)
	// The window until the next retransmission check is attributed to the
	// retry schedule; report-time carving trims it at the answer's arrival.
	c.rec.Backoff(int(c.ID), a, c.engine.Now(), c.engine.Now()+c.backoff(m.attempts))
}

// TryReadHit mirrors the hit arm of AcquireSharedCtx without taking a
// continuation: if the line is present it charges the hit and returns its
// value. Hot issue paths use it to complete hits inline; on a miss the
// caller falls back to AcquireSharedCtx.
func (c *Cache) TryReadHit(a mem.Addr) (mem.Value, bool) {
	if l := c.copyOf(a); l != nil {
		c.hHits.Add(c.Stats, "hits", 1)
		return l.value, true
	}
	return 0, false
}

// TryExclusiveHit is TryReadHit's exclusive counterpart, mirroring the hit
// arm of AcquireExclusiveCtx: commit and global performance coincide, and the
// caller applies its write via WriteLocal.
func (c *Cache) TryExclusiveHit(a mem.Addr) (mem.Value, bool) {
	if l := c.copyOf(a); l != nil && l.state == Exclusive {
		c.hHits.Add(c.Stats, "hits", 1)
		return l.value, true
	}
	return 0, false
}

// AcquireSharedCtx ensures the line is at least Shared and calls
// is.LineCommitted with its value. The callback runs *synchronously* with the
// decision (hit) or with Data arrival (miss), so the line state it observes
// cannot be stolen by a concurrent forward in between; the processor charges
// hit latency itself before its next step. The continuation state travels in
// the MSHR as the IssueCtx value ctx.
func (c *Cache) AcquireSharedCtx(a mem.Addr, sync bool, is IssueSink, ctx IssueCtx) {
	st := c.slot(a)
	if st.state != Invalid {
		c.hHits.Add(c.Stats, "hits", 1)
		c.ictxScratch = ctx
		is.LineCommitted(&c.ictxScratch, st.value)
		return
	}
	if st.m != nil {
		c.fail(nil, "AcquireShared with busy MSHR for x%d", a)
		return
	}
	c.hReadMiss.Add(c.Stats, "read_misses", 1)
	c.incCounter(sync)
	m := c.openMSHR(st, mshr{sync: sync, issuer: is, ictx: ctx})
	c.sendRequest(a, m, Msg{Kind: MsgGetS, Addr: a, Sync: sync})
}

// AcquireExclusiveCtx ensures the line is Exclusive. is.LineCommitted runs at
// the commit point with the line's pre-access value (the caller then applies
// its write via WriteLocal), synchronously with the moment the line is
// exclusively held, so WriteLocal/Reserve inside it can never observe a
// stolen line; is.LinePerformed runs when the access is globally performed.
// On a hit, commit and performance coincide and both run synchronously. sync
// marks a synchronization access.
func (c *Cache) AcquireExclusiveCtx(a mem.Addr, sync bool, is IssueSink, ctx IssueCtx) {
	st := c.slot(a)
	if st.state == Exclusive {
		c.hHits.Add(c.Stats, "hits", 1)
		c.ictxScratch = ctx
		is.LineCommitted(&c.ictxScratch, st.value)
		is.LinePerformed(&c.ictxScratch)
		return
	}
	if st.m != nil {
		c.fail(nil, "AcquireExclusive with busy MSHR for x%d", a)
		return
	}
	c.hWriteMiss.Add(c.Stats, "write_misses", 1)
	c.incCounter(sync)
	m := c.openMSHR(st, mshr{exclusive: true, sync: sync, issuer: is, ictx: ctx})
	c.sendRequest(a, m, Msg{Kind: MsgGetX, Addr: a, Sync: sync})
}

// WriteUpdate performs a data write under the write-update protocol: the
// local copy (if any) commits immediately; the value travels to the directory,
// which updates memory and multicasts it to the other sharers. is.LinePerformed
// runs with ctx when every sharer has acknowledged (is may be nil). Exclusive
// hits complete locally like in the invalidation protocol. The caller must
// have checked Busy first.
func (c *Cache) WriteUpdate(a mem.Addr, v mem.Value, is IssueSink, ctx IssueCtx) {
	st := c.slot(a)
	if st.state == Exclusive {
		c.hHits.Add(c.Stats, "hits", 1)
		st.value = v
		if is != nil {
			c.ictxScratch = ctx
			is.LinePerformed(&c.ictxScratch)
		}
		return
	}
	if st.m != nil {
		c.fail(nil, "WriteUpdate with busy MSHR for x%d", a)
		return
	}
	if st.state != Invalid {
		st.value = v // provisional local commit; directory order prevails
	}
	c.Stats.Add("update_writes", 1)
	c.incCounter(false)
	m := c.openMSHR(st, mshr{exclusive: true, update: true, dataArrived: true, issuer: is, ictx: ctx})
	c.sendRequest(a, m, Msg{Kind: MsgUpdateReq, Addr: a, Value: v})
}

// onUpdate applies a directory-serialized update to the local copy.
func (c *Cache) onUpdate(msg Msg) {
	if l := c.copyOf(msg.Addr); l != nil {
		if msg.Epoch != 0 && msg.Epoch <= l.epoch {
			// Duplicated or delayed update from a transaction serialized
			// before this copy was granted: applying it would travel back in
			// directory order.
			if !c.tolerate("stale_update", c.dirFor(msg.Addr), msg, "stale Update (line epoch %d)", l.epoch) {
				return
			}
			c.send(c.dirFor(msg.Addr), Msg{Kind: MsgUpdateAck, Addr: msg.Addr, Epoch: msg.Epoch})
			return
		}
		l.value = msg.Value
	} else if m := c.mshrOf(msg.Addr); m != nil && !m.dataArrived {
		// The update overtook our pending fill: remember it so the fill
		// installs the newer value.
		m.hasOverride = true
		m.override = msg.Value
	}
	c.Stats.Add("updates_received", 1)
	c.send(c.dirFor(msg.Addr), Msg{Kind: MsgUpdateAck, Addr: msg.Addr, Epoch: msg.Epoch})
}

// WriteLocal commits a value into an Exclusive line. It is called by the
// processor inside a committed callback (or on an exclusive hit).
func (c *Cache) WriteLocal(a mem.Addr, v mem.Value) {
	l := c.copyOf(a)
	if l == nil || l.state != Exclusive {
		c.fail(nil, "WriteLocal to non-exclusive line x%d", a)
		return
	}
	l.value = v
}

// Reserve sets the reserve bit on an Exclusive line; the bit clears
// automatically when the ordinary-access counter reads zero.
func (c *Cache) Reserve(a mem.Addr) {
	l := c.copyOf(a)
	if l == nil || l.state != Exclusive {
		c.fail(nil, "Reserve on non-exclusive line x%d", a)
		return
	}
	if c.dataCounter == 0 {
		return // no ordinary access outstanding: reservation would clear immediately
	}
	l.reserved = true
	c.Stats.Add("reserves_set", 1)
	c.rec.ReserveSet(int(c.ID), a)
}

// Reserved reports whether the line currently has its reserve bit set.
func (c *Cache) Reserved(a mem.Addr) bool {
	l := c.copyOf(a)
	return l != nil && l.reserved
}

// Deliver implements interconnect.Endpoint.
func (c *Cache) Deliver(src interconnect.NodeID, m interconnect.Message) {
	msg, ok := c.msgs.take(m)
	if c.engine.Failed() != nil {
		return
	}
	if !ok {
		c.engine.Fail(&ProtocolError{
			Node: c.ID, Cycle: c.engine.Now(),
			Reason: fmt.Sprintf("non-protocol message %T", m),
		})
		return
	}
	switch msg.Kind {
	case MsgData:
		c.onDataArrival(src, msg)
	case MsgWriteAck:
		c.onWriteAck(src, msg)
	case MsgInv:
		c.onInv(src, msg)
	case MsgUpdate:
		c.onUpdate(msg)
	case MsgFwdS, MsgFwdX:
		c.onFwd(src, msg)
	case MsgNack:
		c.onNack(src, msg)
	default:
		c.failMsg(src, msg, "unexpected %s", msg.Kind)
	}
}

func (c *Cache) onDataArrival(src interconnect.NodeID, msg Msg) {
	rec := c.lookup(msg.Addr)
	if rec == nil || rec.m == nil {
		c.tolerate("stale_data", src, msg, "Data for x%d with no MSHR", msg.Addr)
		return
	}
	m := rec.m
	if msg.Seq != 0 && msg.Seq != m.seq {
		c.tolerate("stale_data", src, msg, "Data for x%d with stale seq (MSHR seq %d)", msg.Addr, m.seq)
		return
	}
	if m.dataArrived {
		c.tolerate("dup_data", src, msg, "duplicate Data for x%d", msg.Addr)
		return
	}
	v := msg.Value
	if m.hasOverride {
		// A directory-serialized update overtook this fill: install (and
		// return) the newer value — the access legally serializes after it.
		v = m.override
	}
	m.dataArrived = true
	m.value = v
	m.excl = msg.Excl
	if msg.Performed {
		m.performed = true
	}
	// Install the line at commit.
	st := Shared
	if msg.Excl {
		st = Exclusive
	}
	if m.invWhilePend && !msg.Excl {
		// An invalidation overtook this read: bind the value to the waiting
		// read but do not cache the line.
		st = Invalid
	}
	if st == Invalid {
		rec.line = line{}
	} else {
		rec.line = line{state: st, value: v, epoch: msg.Epoch}
	}
	// Synchronous with installation: the committed callback (which applies
	// the processor's write) runs before any other message can touch the
	// line.
	if m.issuer != nil {
		m.issuer.LineCommitted(&m.ictx, v)
	}
	c.maybeCompleteMSHR(msg.Addr, m)
}

func (c *Cache) onWriteAck(src interconnect.NodeID, msg Msg) {
	m := c.mshrOf(msg.Addr)
	if m == nil {
		c.tolerate("stale_writeack", src, msg, "WriteAck for x%d with no MSHR", msg.Addr)
		return
	}
	if msg.Seq != 0 && msg.Seq != m.seq {
		c.tolerate("stale_writeack", src, msg, "WriteAck for x%d with stale seq (MSHR seq %d)", msg.Addr, m.seq)
		return
	}
	m.performed = true
	c.maybeCompleteMSHR(msg.Addr, m)
}

// onNack handles a directory rejection of a request (bounded queue full): the
// request is retried with exponential backoff under the same bounded budget
// as timeout-triggered retransmission.
func (c *Cache) onNack(src interconnect.NodeID, msg Msg) {
	m := c.mshrOf(msg.Addr)
	if m == nil || (msg.Seq != 0 && msg.Seq != m.seq) || m.satisfied() {
		c.tolerate("stale_nack", src, msg, "Nack for x%d with no matching transaction", msg.Addr)
		return
	}
	if c.retryTimeout <= 0 {
		c.failMsg(src, msg, "Nack for x%d but retries are disabled", msg.Addr)
		return
	}
	c.Stats.Add("nacks_received", 1)
	backoff := c.backoff(m.attempts)
	seq := m.seq
	c.engine.After(backoff, func() { c.retryCheck(msg.Addr, seq) })
	c.rec.Backoff(int(c.ID), msg.Addr, c.engine.Now(), c.engine.Now()+backoff)
	m.attempts++
	if m.attempts > c.retryLimit {
		c.fail(ErrRetryExhausted, "%s for x%d NACKed past the retry budget (%d attempts)",
			m.req.Kind, msg.Addr, m.attempts)
	}
}

// maybeCompleteMSHR retires the transaction once all its parts are in:
// reads need Data; writes need Data plus global performance.
func (c *Cache) maybeCompleteMSHR(a mem.Addr, m *mshr) {
	st := c.lookup(a)
	if st.m != m || !m.dataArrived {
		return
	}
	if m.exclusive && !m.performed {
		return
	}
	st.m = nil
	if m.exclusive && m.issuer != nil {
		m.issuer.LinePerformed(&m.ictx)
	}
	c.decCounter(m.sync)
	// Callbacks registered from here on find st.m nil or a newer MSHR, so
	// m.onFree holds exactly the waiters of this transaction.
	m.onFree = runAll(m.onFree)
	*m = mshr{onFree: m.onFree}
	c.freeMSHRs = append(c.freeMSHRs, m)
	// Forwards that raced ahead of our Data can be serviced now. A forward
	// that meets a newer transaction of ours parks again, on a fresh slice.
	if pend := st.parked; len(pend) > 0 {
		st.parked = nil
		for _, f := range pend {
			c.onFwd(f.src, f.msg)
		}
		if st.parked == nil {
			st.parked = pend[:0]
		}
	}
}

func (c *Cache) onInv(src interconnect.NodeID, msg Msg) {
	if l := c.copyOf(msg.Addr); l != nil && msg.Epoch != 0 && msg.Epoch <= l.epoch {
		// The invalidation belongs to a transaction serialized before this
		// copy was granted: a duplicated or delayed artifact. Obeying it
		// would discard a copy the directory still believes we hold.
		c.tolerate("stale_inv", src, msg, "stale Inv for x%d (line epoch %d)", msg.Addr, l.epoch)
		return
	}
	if m := c.mshrOf(msg.Addr); m != nil && !m.dataArrived {
		// The invalidation overtook our pending fill.
		m.invWhilePend = true
	}
	if l := c.copyOf(msg.Addr); l != nil {
		*l = line{}
	}
	c.Stats.Add("invalidations", 1)
	c.send(c.dirFor(msg.Addr), Msg{Kind: MsgInvAck, Addr: msg.Addr, Epoch: msg.Epoch})
}

// onFwd handles FwdS/FwdX from the directory: supply the line to the
// requester. Synchronization requests for a reserved line stall until the
// ordinary-access counter reads zero.
func (c *Cache) onFwd(src interconnect.NodeID, msg Msg) {
	// A transaction of our own is still in flight for this line (our Data
	// has not arrived, or our write is not yet performed): park the forward
	// until the MSHR completes so the local access stays atomic.
	if st := c.lookup(msg.Addr); st != nil && st.m != nil {
		st.parked = append(st.parked, stalledFwd{src: src, msg: msg, since: c.engine.Now()})
		return
	}
	l := c.copyOf(msg.Addr)
	if l == nil || l.state != Exclusive {
		c.tolerate("stale_fwd", src, msg, "%s for x%d we do not own", msg.Kind, msg.Addr)
		return
	}
	if msg.Epoch != 0 && msg.Epoch <= l.epoch {
		// The forward was issued before this copy was granted: servicing it
		// would hand the line to a transaction that already completed.
		c.tolerate("stale_fwd", src, msg, "stale %s for x%d (line epoch %d)", msg.Kind, msg.Addr, l.epoch)
		return
	}
	if msg.Sync && l.reserved {
		// Section 5.3: a synchronization request routed to a processor is
		// serviced only if the reserve bit is reset; otherwise it is
		// stalled until the ordinary-access counter reads zero.
		c.Stats.Add("reserve_stalls", 1)
		c.stalledFwds = append(c.stalledFwds, stalledFwd{src: src, msg: msg, since: c.engine.Now()})
		return
	}
	c.serviceFwd(src, msg)
}

func (c *Cache) serviceFwd(src interconnect.NodeID, msg Msg) {
	l := c.copyOf(msg.Addr)
	if l == nil || l.state != Exclusive {
		c.tolerate("stale_fwd", src, msg, "servicing %s for x%d we no longer own", msg.Kind, msg.Addr)
		return
	}
	if l.reserved {
		c.rec.ReserveCleared(int(c.ID), msg.Addr)
	}
	switch msg.Kind {
	case MsgFwdS:
		l.state = Shared
		l.reserved = false
		l.epoch = msg.Epoch
		c.send(msg.Requester, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Performed: true, Seq: msg.Seq, Epoch: msg.Epoch})
		c.send(c.dirFor(msg.Addr), Msg{Kind: MsgDowngrade, Addr: msg.Addr, Value: l.value, Epoch: msg.Epoch})
	case MsgFwdX:
		v := l.value
		*l = line{}
		c.send(msg.Requester, Msg{Kind: MsgData, Addr: msg.Addr, Value: v, Excl: true, Performed: true, Seq: msg.Seq, Epoch: msg.Epoch})
		c.send(c.dirFor(msg.Addr), Msg{Kind: MsgTransfer, Addr: msg.Addr, Value: v, Epoch: msg.Epoch})
	default:
		c.failMsg(src, msg, "serviceFwd of %s", msg.Kind)
	}
}

// Snoop returns the cached value for final-state collection after a run (the
// machine asks the owner first, then memory).
func (c *Cache) Snoop(a mem.Addr) (mem.Value, LineState) {
	if l := c.copyOf(a); l != nil {
		return l.value, l.state
	}
	return 0, Invalid
}
