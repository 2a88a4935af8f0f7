package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/metrics"
	"weakorder/internal/sim"
	"weakorder/internal/stats"
)

// dirLine is the directory's view of one line: exclusive owner or sharer set,
// the memory value, and a per-line transaction queue (the directory processes
// one transaction per line at a time, queueing the rest in arrival order).
// A line is created on its address's first request and every per-transaction
// set and buffer in it is reset in place, never re-made.
type dirLine struct {
	owner   interconnect.NodeID // -1 when none
	sharers nodeSet
	value   mem.Value
	busy    bool
	// queue[qhead:] holds the waiting requests, oldest first.
	queue []queuedReq
	qhead int
	// epoch numbers this line's transactions; it increments when one opens
	// and is stamped on every message the transaction emits, so stale
	// (duplicated or delayed) acknowledgements and forwards identify
	// themselves by carrying a closed epoch.
	epoch uint64
	// pendingFrom is the set of nodes whose InvAck/UpdateAck the in-flight
	// transaction still awaits. A set, not a counter: a duplicated ack from
	// a node already accounted for cannot decrement twice.
	pendingFrom nodeSet
	requester   interconnect.NodeID
	// cur is the request that opened the in-flight transaction, and
	// seen[src] the highest request seq ever opened from src, so a
	// fabric-duplicated request (same src and seq) is ignored rather than
	// re-processed — re-processing a completed GetX could steal ownership
	// from its rightful current holder.
	cur  queuedReq
	seen []uint64
	// busySince is when the in-flight transaction opened (watchdog input).
	busySince sim.Time
}

type queuedReq struct {
	src interconnect.NodeID
	msg Msg
}

// queued returns the number of waiting requests.
func (l *dirLine) queued() int { return len(l.queue) - l.qhead }

// enqueue appends a request, first sliding the waiting requests down over
// the consumed prefix when the buffer is full, so a line under steady
// contention reuses one buffer.
func (l *dirLine) enqueue(q queuedReq) {
	if l.qhead > 0 && len(l.queue) == cap(l.queue) {
		l.queue = l.queue[:copy(l.queue, l.queue[l.qhead:])]
		l.qhead = 0
	}
	l.queue = append(l.queue, q)
}

// dequeue removes and returns the oldest waiting request.
func (l *dirLine) dequeue() queuedReq {
	q := l.queue[l.qhead]
	l.qhead++
	if l.qhead == len(l.queue) {
		l.queue, l.qhead = l.queue[:0], 0
	}
	return q
}

// nodeSet is a set of fabric nodes, one bit per NodeID. Clearing keeps the
// words, and iteration yields ascending NodeIDs — the deterministic multicast
// order the per-message jitter draws and bus slots depend on.
type nodeSet []uint64

func (s *nodeSet) add(n interconnect.NodeID) {
	w := int(n) >> 6
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(n) & 63)
}

func (s nodeSet) has(n interconnect.NodeID) bool {
	w := int(n) >> 6
	return w < len(s) && s[w]&(1<<(uint(n)&63)) != 0
}

func (s nodeSet) remove(n interconnect.NodeID) {
	if w := int(n) >> 6; w < len(s) {
		s[w] &^= 1 << (uint(n) & 63)
	}
}

func (s nodeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// appendExcept appends the members other than skip in ascending order.
func (s nodeSet) appendExcept(dst []interconnect.NodeID, skip interconnect.NodeID) []interconnect.NodeID {
	for i, w := range s {
		for w != 0 {
			n := interconnect.NodeID(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			if n != skip {
				dst = append(dst, n)
			}
		}
	}
	return dst
}

// DirShard is one home node: a full-map directory plus backing memory for
// the slice of the address space it owns. NewShardedDirectory composes one or
// more over an address partition; a lone shard owns the whole address space.
// Either way it is the complete, unmodified protocol engine — the sharding
// layer above it only routes.
type DirShard struct {
	ID     interconnect.NodeID
	engine *sim.Engine
	fabric interconnect.Fabric
	msgs   *MsgPool
	memLat sim.Time
	lines  map[mem.Addr]*dirLine
	Stats  *stats.Counters

	// lookup fires process when a transaction's memory latency has elapsed;
	// the event carries the line, whose cur field holds the request.
	lookup sim.Sink
	// targets is the multicast scratch list process fills per transaction.
	targets []interconnect.NodeID

	// Hot-path counter handles (see stats.Hot).
	hGets, hGetx, hQueued stats.Hot

	// lenient tolerates messages explainable as fabric faults (see
	// Cache.SetLenient); strict mode raises ErrProtocol for them.
	lenient bool
	// queueLimit bounds the per-line request queue; requests beyond it are
	// NACKed so the requester backs off and retries. Zero (the default)
	// keeps the legacy unbounded queue and never NACKs.
	queueLimit int
	// Watchdog: while any line is busy, a recurring check every wdInterval
	// cycles fails the run with ErrWatchdog if a transaction has been open
	// longer than wdTimeout (plus wdGrace, see SetWatchdogGrace). Armed
	// lazily so an idle directory schedules no events and the engine's queue
	// still drains.
	wdInterval sim.Time
	wdTimeout  sim.Time
	wdGrace    sim.Time
	wdArmed    bool

	// occ is the request-occupancy histogram: each arriving request is
	// bucketed by how many transactions for its line were already open or
	// queued (the last bucket absorbs the tail). Kept per shard so hot-shard
	// contention is directly visible in capacity studies.
	occ [occBuckets]uint64

	// rec, when non-nil, receives per-line transaction occupancy spans.
	rec *metrics.Recorder
}

// NewDirectory builds the directory/memory controller. It sends from and
// recycles into the machine's message pool msgs. init supplies initial
// memory contents; memLat is the lookup latency applied to each request it
// processes.
func NewDirectory(id interconnect.NodeID, engine *sim.Engine, fabric interconnect.Fabric, msgs *MsgPool, memLat sim.Time, init map[mem.Addr]mem.Value) *DirShard {
	if memLat < 1 {
		memLat = 1
	}
	d := &DirShard{
		ID:     id,
		engine: engine,
		fabric: fabric,
		msgs:   msgs,
		memLat: memLat,
		lines:  make(map[mem.Addr]*dirLine),
		Stats:  stats.NewCounters(),
	}
	d.lookup = lookupDone{d}
	for a, v := range init {
		d.lines[a] = d.newLine(v)
	}
	fabric.Attach(id, d)
	return d
}

// lookupDone is the sim.Sink behind DirShard.lookup.
type lookupDone struct{ d *DirShard }

// DeliverEvent implements sim.Sink: line is the *dirLine whose transaction
// open scheduled the event.
func (e lookupDone) DeliverEvent(_ int, line any) {
	l := line.(*dirLine)
	e.d.process(l, l.cur.src, l.cur.msg)
}

// send hands a message to the fabric in a pooled record.
func (d *DirShard) send(dst interconnect.NodeID, m Msg) { d.msgs.send(d.fabric, d.ID, dst, m) }

// SetLenient switches the directory into fault-tolerant mode (see
// Cache.SetLenient).
func (d *DirShard) SetLenient(on bool) { d.lenient = on }

// SetQueueLimit bounds the per-line request queue to n entries; further
// requests are NACKed. Zero restores the unbounded legacy behaviour.
func (d *DirShard) SetQueueLimit(n int) { d.queueLimit = n }

// EnableWatchdog arms the transaction watchdog: every interval cycles (while
// any line is busy) it checks for a transaction open longer than timeout and
// fails the run with ErrWatchdog — a lost message with no recovery path.
func (d *DirShard) EnableWatchdog(interval, timeout sim.Time) {
	if interval < 1 {
		interval = 1
	}
	d.wdInterval = interval
	d.wdTimeout = timeout
}

// SetWatchdogGrace extends the watchdog deadline by grace cycles. A
// transaction can be open, through no fault of its own, while its requester
// (or the owner servicing a routed request) legitimately sleeps through its
// retransmission backoff schedule — the watchdog deadline must cover the
// worst-case remaining backoff (cache.BackoffBudget) on top of the
// lost-message timeout, or heavy-but-survivable fault rates raise spurious
// ErrWatchdog failures.
func (d *DirShard) SetWatchdogGrace(grace sim.Time) {
	if grace < 0 {
		grace = 0
	}
	d.wdGrace = grace
}

// SetMetrics attaches a cycle-observability recorder (nil to detach).
func (d *DirShard) SetMetrics(rec *metrics.Recorder) { d.rec = rec }

// fail aborts the simulation with a ProtocolError detected by the directory.
func (d *DirShard) fail(kind error, format string, args ...interface{}) {
	d.engine.Fail(&ProtocolError{
		Node: d.ID, Dir: true, Cycle: d.engine.Now(),
		Reason: fmt.Sprintf(format, args...), Kind: kind,
	})
}

// failMsg aborts the simulation with a message-triggered ProtocolError.
func (d *DirShard) failMsg(src interconnect.NodeID, msg Msg, format string, args ...interface{}) {
	d.engine.Fail(&ProtocolError{
		Node: d.ID, Dir: true, Cycle: d.engine.Now(), Msg: msg, HasMsg: true, From: src,
		Reason: fmt.Sprintf(format, args...),
	})
}

// tolerate mirrors Cache.tolerate for the directory side.
func (d *DirShard) tolerate(stat string, src interconnect.NodeID, msg Msg, format string, args ...interface{}) bool {
	if d.lenient {
		d.Stats.Add("tolerated_"+stat, 1)
		return true
	}
	d.failMsg(src, msg, format, args...)
	return false
}

func (d *DirShard) newLine(v mem.Value) *dirLine {
	return &dirLine{owner: -1, value: v}
}

func (d *DirShard) line(a mem.Addr) *dirLine {
	l := d.lines[a]
	if l == nil {
		l = d.newLine(0)
		d.lines[a] = l
	}
	return l
}

// dupRequest reports whether the request is a fabric duplicate of one the
// directory already opened, is processing, or has queued. Untagged requests
// (Seq 0, from hand-crafted tests) are never deduplicated.
func (d *DirShard) dupRequest(l *dirLine, src interconnect.NodeID, msg Msg) bool {
	if msg.Seq == 0 {
		return false
	}
	if int(src) < len(l.seen) && l.seen[src] >= msg.Seq {
		return true
	}
	if l.busy && l.cur.src == src && l.cur.msg.Seq == msg.Seq {
		return true
	}
	for _, q := range l.queue[l.qhead:] {
		if q.src == src && q.msg.Seq == msg.Seq {
			return true
		}
	}
	return false
}

// open starts a transaction: the line goes busy, the epoch advances, and the
// request is remembered for duplicate suppression and the watchdog.
func (d *DirShard) open(l *dirLine, src interconnect.NodeID, msg Msg) {
	l.busy = true
	l.epoch++
	l.cur = queuedReq{src, msg}
	l.busySince = d.engine.Now()
	if int(src) >= len(l.seen) {
		l.seen = append(l.seen, make([]uint64, int(src)+1-len(l.seen))...)
	}
	if msg.Seq > l.seen[src] {
		l.seen[src] = msg.Seq
	}
	if d.rec.Enabled() {
		d.rec.DirOpen(msg.Addr, fmt.Sprintf("%s P%d", msg.Kind, src))
	}
	d.armWatchdog()
	d.engine.DeliverAt(d.engine.Now()+d.memLat, d.lookup, int(src), l)
}

// closeTxn ends the line's in-flight transaction.
func (d *DirShard) closeTxn(a mem.Addr, l *dirLine) {
	l.busy = false
	d.rec.DirClosed(a)
}

// Deliver implements interconnect.Endpoint.
func (d *DirShard) Deliver(src interconnect.NodeID, m interconnect.Message) {
	msg, ok := d.msgs.take(m)
	if d.engine.Failed() != nil {
		return
	}
	if !ok {
		d.engine.Fail(&ProtocolError{
			Node: d.ID, Dir: true, Cycle: d.engine.Now(),
			Reason: fmt.Sprintf("non-protocol message %T", m),
		})
		return
	}
	switch msg.Kind {
	case MsgGetS, MsgGetX, MsgUpdateReq:
		l := d.line(msg.Addr)
		if d.dupRequest(l, src, msg) {
			d.Stats.Add("tolerated_dup_request", 1)
			return
		}
		depth := 0
		if l.busy {
			depth = 1 + l.queued()
		}
		if depth >= occBuckets {
			depth = occBuckets - 1
		}
		d.occ[depth]++
		if l.busy {
			if d.queueLimit > 0 && l.queued() >= d.queueLimit {
				d.Stats.Add("nacks_sent", 1)
				d.send(src, Msg{Kind: MsgNack, Addr: msg.Addr, Seq: msg.Seq})
				return
			}
			l.enqueue(queuedReq{src, msg})
			d.hQueued.Add(d.Stats, "queued_requests", 1)
			return
		}
		d.open(l, src, msg)
	case MsgInvAck, MsgUpdateAck:
		d.onAck(src, msg)
	case MsgDowngrade:
		d.onDowngrade(src, msg)
	case MsgTransfer:
		d.onTransfer(src, msg)
	default:
		d.failMsg(src, msg, "unexpected %s", msg.Kind)
	}
}

// process starts a transaction for a line previously opened by open().
func (d *DirShard) process(l *dirLine, src interconnect.NodeID, msg Msg) {
	if d.engine.Failed() != nil {
		return
	}
	switch msg.Kind {
	case MsgGetS:
		d.hGets.Add(d.Stats, "gets", 1)
		if l.owner >= 0 && l.owner != src {
			// Route to the exclusive owner (the paper's "the next request
			// for it will be routed to Pi"). The line stays busy until the
			// owner's Downgrade arrives.
			l.requester = src
			d.send(l.owner, Msg{Kind: MsgFwdS, Addr: msg.Addr, Requester: src, Sync: msg.Sync, Seq: msg.Seq, Epoch: l.epoch})
			return
		}
		if l.owner == src {
			// The recorded owner re-reading its own line cannot happen
			// fault-free (it would hit locally); re-grant for robustness.
			d.closeTxn(msg.Addr, l)
			d.send(src, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Excl: true, Performed: true, Seq: msg.Seq, Epoch: l.epoch})
			d.drain(l)
			return
		}
		l.sharers.add(src)
		d.closeTxn(msg.Addr, l)
		d.send(src, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Performed: true, Seq: msg.Seq, Epoch: l.epoch})
		d.drain(l)
	case MsgGetX:
		d.hGetx.Add(d.Stats, "getx", 1)
		if l.owner >= 0 && l.owner != src {
			d.send(l.owner, Msg{Kind: MsgFwdX, Addr: msg.Addr, Requester: src, Sync: msg.Sync, Seq: msg.Seq, Epoch: l.epoch})
			l.requester = src
			return
		}
		if l.owner == src {
			// The owner re-requesting exclusivity cannot happen without
			// evictions; treat as immediate re-grant for robustness.
			d.closeTxn(msg.Addr, l)
			d.send(src, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Excl: true, Performed: true, Seq: msg.Seq, Epoch: l.epoch})
			d.drain(l)
			return
		}
		// Invalidate sharers (if any); forward the line to the requester in
		// parallel, per the paper's protocol.
		targets := l.sharers.appendExcept(d.targets[:0], src)
		d.targets = targets
		clear(l.sharers)
		l.owner = src
		if len(targets) == 0 {
			d.closeTxn(msg.Addr, l)
			d.send(src, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Excl: true, Performed: true, Seq: msg.Seq, Epoch: l.epoch})
			d.drain(l)
			return
		}
		l.awaitAcks(targets)
		l.requester = src
		d.send(src, Msg{Kind: MsgData, Addr: msg.Addr, Value: l.value, Excl: true, Performed: false, Seq: msg.Seq, Epoch: l.epoch})
		for _, t := range targets {
			d.send(t, Msg{Kind: MsgInv, Addr: msg.Addr, Epoch: l.epoch})
		}
	case MsgUpdateReq:
		// Write-update data path: memory takes the value; every other
		// holder of a copy receives it; the writer is acked once all have
		// acknowledged (its write is then globally performed).
		d.Stats.Add("updates", 1)
		l.value = msg.Value
		targets := l.sharers.appendExcept(d.targets[:0], src)
		if l.owner >= 0 && l.owner != src {
			i, _ := slices.BinarySearch(targets, l.owner)
			targets = slices.Insert(targets, i, l.owner)
		}
		d.targets = targets
		if len(targets) == 0 {
			d.closeTxn(msg.Addr, l)
			d.send(src, Msg{Kind: MsgWriteAck, Addr: msg.Addr, Seq: msg.Seq, Epoch: l.epoch})
			d.drain(l)
			return
		}
		l.awaitAcks(targets)
		l.requester = src
		for _, t := range targets {
			d.send(t, Msg{Kind: MsgUpdate, Addr: msg.Addr, Value: msg.Value, Epoch: l.epoch})
		}
	default:
		d.failMsg(src, msg, "process %s", msg.Kind)
	}
}

// awaitAcks makes targets the set of nodes the transaction awaits acks from.
func (l *dirLine) awaitAcks(targets []interconnect.NodeID) {
	clear(l.pendingFrom)
	for _, t := range targets {
		l.pendingFrom.add(t)
	}
}

// onAck collects InvAck/UpdateAck for the in-flight transaction. Duplicated
// acks are idempotent: each pending node is crossed off a set at most once,
// so the completion condition can never be reached early by double-counting.
func (d *DirShard) onAck(src interconnect.NodeID, msg Msg) {
	l := d.line(msg.Addr)
	if !l.busy || l.pendingFrom.empty() {
		d.tolerate("stray_ack", src, msg, "stray %s for x%d", msg.Kind, msg.Addr)
		return
	}
	if msg.Epoch != 0 && msg.Epoch != l.epoch {
		d.tolerate("stale_ack", src, msg, "%s for x%d from a closed epoch (current %d)", msg.Kind, msg.Addr, l.epoch)
		return
	}
	if !l.pendingFrom.has(src) {
		d.tolerate("dup_ack", src, msg, "%s for x%d from node %d not pending", msg.Kind, msg.Addr, src)
		return
	}
	l.pendingFrom.remove(src)
	if l.pendingFrom.empty() {
		// "When the directory receives all the acks pertaining to a
		// particular write, it sends its ack to the processor cache that
		// issued the write."
		d.send(l.requester, Msg{Kind: MsgWriteAck, Addr: msg.Addr, Seq: l.cur.msg.Seq, Epoch: l.epoch})
		d.closeTxn(msg.Addr, l)
		d.drain(l)
	}
}

func (d *DirShard) onDowngrade(src interconnect.NodeID, msg Msg) {
	l := d.line(msg.Addr)
	if !l.busy || l.owner < 0 {
		d.tolerate("stray_downgrade", src, msg, "stray Downgrade for x%d", msg.Addr)
		return
	}
	if msg.Epoch != 0 && msg.Epoch != l.epoch {
		d.tolerate("stale_downgrade", src, msg, "Downgrade for x%d from a closed epoch (current %d)", msg.Addr, l.epoch)
		return
	}
	l.value = msg.Value
	// Both the downgraded old owner and the requester (supplied directly by
	// the old owner) now hold shared copies.
	l.sharers.add(l.owner)
	l.sharers.add(l.requester)
	l.owner = -1
	d.closeTxn(msg.Addr, l)
	d.drain(l)
}

func (d *DirShard) onTransfer(src interconnect.NodeID, msg Msg) {
	l := d.line(msg.Addr)
	if !l.busy || l.owner < 0 {
		d.tolerate("stray_transfer", src, msg, "stray Transfer for x%d", msg.Addr)
		return
	}
	if msg.Epoch != 0 && msg.Epoch != l.epoch {
		d.tolerate("stale_transfer", src, msg, "Transfer for x%d from a closed epoch (current %d)", msg.Addr, l.epoch)
		return
	}
	l.value = msg.Value
	l.owner = l.requester
	d.closeTxn(msg.Addr, l)
	d.drain(l)
}

// drain processes the next queued request for the line, if any.
func (d *DirShard) drain(l *dirLine) {
	if l.busy || l.queued() == 0 {
		return
	}
	q := l.dequeue()
	d.open(l, q.src, q.msg)
}

// armWatchdog schedules the next watchdog check unless one is already
// pending or the watchdog is disabled.
func (d *DirShard) armWatchdog() {
	if d.wdInterval <= 0 || d.wdArmed {
		return
	}
	d.wdArmed = true
	d.engine.After(d.wdInterval, d.watchdogTick)
}

// watchdogTick fails the run if a transaction overstayed its timeout, and
// re-arms only while some line is still busy — so an idle machine's event
// queue drains and Run terminates normally.
func (d *DirShard) watchdogTick() {
	d.wdArmed = false
	if d.engine.Failed() != nil {
		return
	}
	now := d.engine.Now()
	var expired *dirLine
	var expiredAddr mem.Addr
	anyBusy := false
	for a, l := range d.lines {
		if !l.busy {
			continue
		}
		anyBusy = true
		if now-l.busySince >= d.wdTimeout+d.wdGrace && (expired == nil || a < expiredAddr) {
			expired, expiredAddr = l, a
		}
	}
	if expired != nil {
		d.fail(ErrWatchdog, "transaction for x%d (from node %d, seq %d, epoch %d) busy since cycle %d",
			expiredAddr, expired.cur.src, expired.cur.msg.Seq, expired.epoch, expired.busySince)
		return
	}
	if anyBusy {
		d.armWatchdog()
	}
}

// MemValue returns the directory's memory value for final-state collection.
func (d *DirShard) MemValue(a mem.Addr) (mem.Value, bool) {
	l := d.lines[a]
	if l == nil {
		return 0, false
	}
	return l.value, true
}

// Owner returns the current exclusive owner of a line (-1 none).
func (d *DirShard) Owner(a mem.Addr) interconnect.NodeID {
	l := d.lines[a]
	if l == nil {
		return -1
	}
	return l.owner
}

// occBuckets is the request-occupancy histogram width (see the occ field).
const occBuckets = 8
