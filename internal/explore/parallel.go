// Parallel exploration: Explorer.Workers > 1 shards one Run across a pool of
// workers. The frontier is split over per-worker work-stealing deques (LIFO
// for the owner, FIFO for thieves, so stolen items are the shallowest — and
// therefore largest — pending subtrees), and the visited store becomes a
// striped concurrent map whose per-shard mutex linearizes all skip-mask
// transitions of any one state. Masks only ever shrink (monotonic
// intersection), and every bit removed is handed back to exactly one visit,
// which expands it — so the parallel search performs the same set of
// (state, mask) transitions as the serial kernel under an arbitrary frontier
// schedule, and reaches the same terminal-state set. Visit order, and with
// reduction enabled the Stats, are the only things scheduling can change.
// See DESIGN.md §"Parallel exploration" for the full soundness argument.
package explore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"weakorder/internal/digest"
	"weakorder/internal/par"
)

// resolveWorkers maps the Workers knob to a concrete width, plus the release
// for any slots claimed from the process-wide par budget. Explicit widths pin
// (and register) exactly what was asked; negative widths take whatever the
// budget has spare, degrading gracefully to serial under saturation.
func (x *Explorer) resolveWorkers() (int, func()) {
	switch {
	case x.Workers > 1:
		return x.Workers, par.Register(x.Workers - 1)
	case x.Workers < 0:
		extra, release := par.Acquire(par.Workers() - 1)
		return 1 + extra, release
	default:
		return 1, func() {}
	}
}

// workItem is one pending subtree root: a system state owned by whoever
// dequeues it, plus the sleep set it inherited from its expansion site.
type workItem struct {
	sys   TransitionSystem
	sleep []Step
}

// wsDeque is a mutex-based work-stealing deque. Work items are coarse (each
// is a whole subtree exploration, microseconds at minimum), so a mutex per
// operation is noise; the size field is kept atomically so thieves can scan
// past empty victims without touching their locks.
type wsDeque struct {
	mu    sync.Mutex
	head  int // index of the oldest item; items[:head] are consumed slots
	items []workItem
	size  atomic.Int64
}

func (d *wsDeque) push(it workItem) {
	d.mu.Lock()
	d.items = append(d.items, it)
	d.size.Store(int64(len(d.items) - d.head))
	d.mu.Unlock()
}

// pop takes the newest item (owner side, LIFO): depth-first order, so the
// owner's working set stays hot and bounded like the serial stack.
func (d *wsDeque) pop() (workItem, bool) {
	d.mu.Lock()
	if len(d.items) == d.head {
		d.mu.Unlock()
		return workItem{}, false
	}
	n := len(d.items) - 1
	it := d.items[n]
	d.items[n] = workItem{}
	d.items = d.items[:n]
	if len(d.items) == d.head {
		d.items, d.head = d.items[:0], 0
	}
	d.size.Store(int64(len(d.items) - d.head))
	d.mu.Unlock()
	return it, true
}

// steal takes the oldest item (thief side, FIFO): the shallowest pending
// subtree, which is statistically the largest, amortizing the steal.
func (d *wsDeque) steal() (workItem, bool) {
	d.mu.Lock()
	if len(d.items) == d.head {
		d.mu.Unlock()
		return workItem{}, false
	}
	it := d.items[d.head]
	d.items[d.head] = workItem{}
	d.head++
	if d.head >= 32 && d.head*2 >= len(d.items) {
		d.items = append(d.items[:0], d.items[d.head:]...)
		d.head = 0
	}
	d.size.Store(int64(len(d.items) - d.head))
	d.mu.Unlock()
	return it, true
}

// visitedShards is the stripe count of the concurrent visited store. 64
// shards keep contention negligible at any realistic worker count while the
// per-shard maps stay dense enough to be cache-friendly.
const visitedShards = 64

// visitedShard is one stripe: the serial store behind its own mutex.
type visitedShard struct {
	mu sync.Mutex
	visitedSet
}

// stripedVisited is the concurrent visited store: states are assigned to
// shards by the low bits of their digest — in FullKeys mode too, where the
// digest routes but the full key bytes deduplicate — so a state's shard, and
// hence the mutex serializing its mask transitions, is a stable function of
// the state alone.
type stripedVisited struct {
	budget  int64
	count   atomic.Int64 // distinct states committed (reservation-counted)
	reserve func() bool  // claims one budget slot for a first visit
	shards  [visitedShards]visitedShard
}

func newStripedVisited(fullKeys bool, capacity, budget int) *stripedVisited {
	v := &stripedVisited{budget: int64(budget)}
	v.reserve = func() bool {
		if v.count.Add(1) > v.budget {
			v.count.Add(-1)
			return false
		}
		return true
	}
	per := capacity/visitedShards + 1
	for i := range v.shards {
		v.shards[i].visitedSet = newVisitedSet(fullKeys, per)
	}
	return v
}

// visit performs one atomic visited-store transition (visitedSet.visit) for
// the state with the given key. The shard mutex makes the read-modify-write
// atomic, so when two workers race to a state one of them observes the
// other's store: masks shrink monotonically, and every bit ever cleared from
// a stored mask is returned in exactly one visit's todo — a lost race
// re-expands at most the mask difference, never loses a step.
func (v *stripedVisited) visit(key []byte, all, skip uint64) (todo uint64, isNew, overBudget bool) {
	sum := digest.Sum128(key)
	sh := &v.shards[sum[0]&(visitedShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.visit(key, sum, all, skip, v.reserve)
}

// prun is the shared state of one parallel Run.
type prun struct {
	x       *Explorer
	visited *stripedVisited
	deques  []*wsDeque
	pending atomic.Int64 // items published but not yet fully processed
	stop    atomic.Bool

	finalMu sync.Mutex // serializes the caller's final callback
	final   func(TransitionSystem) bool

	errMu sync.Mutex
	err   error

	idleMu sync.Mutex
	idle   *sync.Cond
	idlers atomic.Int32
}

// workerState is the per-worker scratch: reducer arrays, the reused key,
// step, sleep and publication buffers, the free list, and the stats buffer
// merged after the pool drains.
type workerState struct {
	id    int
	red   *reducer
	key   []byte
	steps []Step     // the step list of the state being expanded
	sleep []Step     // the inline child's sleep set
	pubs  []workItem // the siblings of one expansion, awaiting publication
	// free holds the states this worker dropped, the storage of its next
	// clones. States migrate between workers with the items that carry
	// them, so a worker that drops more than it clones would hoard them
	// without the maxFree cap.
	free  []TransitionSystem
	stats Stats
}

// maxFree caps a worker's free list.
const maxFree = 64

// drop recycles a state the worker no longer references.
func (ws *workerState) drop(s TransitionSystem) {
	if len(ws.free) < maxFree {
		ws.free = append(ws.free, s)
	}
}

// clone copies s into the storage of a dropped state, if the worker has one.
func (ws *workerState) clone(s TransitionSystem) TransitionSystem {
	var reuse TransitionSystem
	if n := len(ws.free); n > 0 {
		reuse, ws.free[n-1], ws.free = ws.free[n-1], nil, ws.free[:n-1]
	}
	return s.Clone(reuse)
}

// pframe mirrors the serial frame for one expansion. wide marks the first
// visit of a state with more than 64 enabled steps, whose indices past 63 the
// masks cannot describe: they are expanded unconditionally, and revisits of
// such states carry todo == 0 (nothing was ever skipped).
type pframe struct {
	sys   TransitionSystem
	steps []Step
	sleep uint64
	todo  uint64
	wide  bool
}

// runParallel is Run at width > 1.
func (x *Explorer) runParallel(sys TransitionSystem, final func(TransitionSystem) bool, width int) (Stats, error) {
	p := &prun{
		x:       x,
		visited: newStripedVisited(x.FullKeys, initialVisited, x.budget()),
		deques:  make([]*wsDeque, width),
		final:   final,
	}
	p.idle = sync.NewCond(&p.idleMu)
	for i := range p.deques {
		p.deques[i] = &wsDeque{}
	}
	p.pending.Store(1)
	p.deques[0].push(workItem{sys: sys.Clone(nil)})
	stats := make([]Stats, width)
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func(id int) {
			defer wg.Done()
			ws := &workerState{id: id, red: &reducer{syncOrder: x.VisibleSyncOrder}}
			p.worker(ws)
			stats[id] = ws.stats
		}(w)
	}
	wg.Wait()
	var st Stats
	for _, s := range stats {
		st.States += s.States
		st.Transitions += s.Transitions
		st.Finals += s.Finals
		st.Truncated += s.Truncated
	}
	p.errMu.Lock()
	err := p.err
	p.errMu.Unlock()
	return st, err
}

func (p *prun) worker(ws *workerState) {
	for {
		it, ok := p.take(ws.id)
		if !ok {
			return
		}
		if err := p.process(ws, it); err != nil {
			p.fail(err)
		}
		if p.pending.Add(-1) == 0 {
			p.wakeAll()
		}
	}
}

// take returns the next work item for worker id: local pop first, then a
// steal sweep over the other deques, then — if work may still appear — park
// on the idle cond. The idler count is published under idleMu before the
// rechecks, and publishers push before reading it, so a publish racing a
// failed scan is always caught by the recheck and never sleeps through.
func (p *prun) take(id int) (workItem, bool) {
	for {
		if p.stop.Load() {
			return workItem{}, false
		}
		if it, ok := p.deques[id].pop(); ok {
			return it, true
		}
		for off := 1; off < len(p.deques); off++ {
			d := p.deques[(id+off)%len(p.deques)]
			if d.size.Load() == 0 {
				continue
			}
			if it, ok := d.steal(); ok {
				return it, true
			}
		}
		if p.pending.Load() == 0 {
			return workItem{}, false
		}
		p.idleMu.Lock()
		p.idlers.Add(1)
		if p.anyWork() || p.pending.Load() == 0 || p.stop.Load() {
			p.idlers.Add(-1)
			p.idleMu.Unlock()
			continue
		}
		p.idle.Wait()
		p.idlers.Add(-1)
		p.idleMu.Unlock()
	}
}

func (p *prun) anyWork() bool {
	for _, d := range p.deques {
		if d.size.Load() != 0 {
			return true
		}
	}
	return false
}

// publish hands a work item to worker id's own deque (keeping publication
// local: a busy worker's surplus is what thieves target) and wakes one parked
// worker if any.
func (p *prun) publish(id int, it workItem) {
	p.pending.Add(1)
	p.deques[id].push(it)
	if p.idlers.Load() > 0 {
		p.idleMu.Lock()
		p.idle.Signal()
		p.idleMu.Unlock()
	}
}

func (p *prun) wakeAll() {
	p.idleMu.Lock()
	p.idle.Broadcast()
	p.idleMu.Unlock()
}

// halt initiates wind-down: early stop or error.
func (p *prun) halt() {
	p.stop.Store(true)
	p.wakeAll()
}

// fail records the first error and winds the pool down. "First" is first to
// acquire the mutex — under parallel scheduling there is no canonical first
// failure, only whether the run failed.
func (p *prun) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.halt()
}

// process explores the subtree rooted at it, descending inline into the
// first pending child of every state (preserving the serial kernel's
// depth-first memory behavior) and publishing the remaining siblings as work
// items, newest pushed last so a lone worker pops them — and hence visits
// states — in exactly the serial pre-order.
func (p *prun) process(ws *workerState, it workItem) error {
	s, sleep := it.sys, it.sleep
	for {
		if p.stop.Load() {
			return nil
		}
		f, descend, err := p.enter(ws, s, sleep)
		if err != nil || !descend {
			return err
		}
		// Expand the frame in one pass: the first pending step becomes the
		// inline continuation; every later sibling is cloned from the parent
		// (the inline child consumes the parent afterwards — k-1 clones for k
		// children, the serial elision), applied, and queued for publication.
		// Sibling i carries the earlier-expanded siblings that commute with
		// it in its sleep set, exactly as if they had been expanded first —
		// coverage is a property of the explored set at fixpoint, not of the
		// order the subtrees run in. enter has read the inherited sleep set,
		// so the inline child's may take over its buffer; a published
		// sibling's sleep set is its own, since another worker may run it.
		var (
			inline     Step
			haveInline bool
			done       uint64
		)
		n := len(f.steps)
		for i := 0; i < n; i++ {
			if i < 64 {
				if f.todo&(uint64(1)<<i) == 0 {
					continue
				}
			} else if !f.wide {
				break
			}
			t := f.steps[i]
			covered := f.sleep | done
			if i < 64 {
				done |= uint64(1) << i
			}
			if !haveInline {
				ws.sleep = p.x.appendChildSleep(ws.sleep[:0], f.steps, covered, t)
				inline, haveInline = t, true
				continue
			}
			c := ws.clone(f.sys)
			if err := c.Apply(t); err != nil {
				return fmt.Errorf("explore: applying %s on %s: %w", t, c.Name(), err)
			}
			ws.stats.Transitions++
			ws.pubs = append(ws.pubs, workItem{sys: c, sleep: p.x.appendChildSleep(nil, f.steps, covered, t)})
		}
		for i := len(ws.pubs) - 1; i >= 0; i-- {
			p.publish(ws.id, ws.pubs[i])
		}
		clear(ws.pubs)
		ws.pubs = ws.pubs[:0]
		if !haveInline {
			// Defensive: enter never descends with an empty todo set, so an
			// expansion always has an inline continuation.
			ws.drop(f.sys)
			return nil
		}
		if err := f.sys.Apply(inline); err != nil {
			return fmt.Errorf("explore: applying %s on %s: %w", inline, f.sys.Name(), err)
		}
		ws.stats.Transitions++
		s, sleep = f.sys, ws.sleep
	}
}

// enter mirrors the serial kernel's per-state processing against the striped
// store: path bound, step computation, reduction masks, atomic visited
// transition, budget, terminal handling. A state it does not descend into is
// dropped onto the worker's free list, whichever worker cloned it — the item
// carrying it was handed over under its deque's mutex, and no other worker
// holds it — except a terminal state handed to final.
func (p *prun) enter(ws *workerState, s TransitionSystem, sleep []Step) (pframe, bool, error) {
	x := p.x
	if s.Prune() {
		ws.stats.Truncated++
		ws.drop(s)
		return pframe{}, false, nil
	}
	ws.steps = s.Steps(ws.steps[:0])
	steps := ws.steps
	ws.key = s.AppendKey(ws.key[:0])
	sleepMask, skip := x.skipMasks(ws.red, s, steps, sleep)
	todo, isNew, over := p.visited.visit(ws.key, maskAll(len(steps)), skip)
	if over {
		// The reservation count makes "budget exhausted" mean exactly what
		// it says at any width: precisely budget distinct states committed.
		return pframe{}, false, &StateBudgetError{System: s.Name(), States: int(p.visited.budget)}
	}
	if isNew {
		ws.stats.States++
		if len(steps) == 0 {
			if !s.Done() {
				if x.AllowStuck {
					ws.drop(s)
					return pframe{}, false, nil
				}
				return pframe{}, false, fmt.Errorf("explore: %s deadlocked (no enabled steps, not done)", s.Name())
			}
			// First visit of a terminal state: the visited reservation above
			// is the dedup, so this is the one delivery. The callback is
			// serialized — callers' closures are not required to be
			// thread-safe — and suppressed after stop, so an early stop is
			// prompt at any width.
			stopped := false
			p.finalMu.Lock()
			if !p.stop.Load() {
				ws.stats.Finals++
				if !p.final(s) {
					stopped = true
				}
			}
			p.finalMu.Unlock()
			if stopped {
				p.halt()
			}
			return pframe{}, false, nil
		}
	}
	if todo == 0 {
		// A revisit with nothing new to expand, or a first visit whose every
		// enabled step is asleep or outside the persistent set: a legitimate
		// leaf of the reduced search (the serial kernel drops it the same
		// way).
		ws.drop(s)
		return pframe{}, false, nil
	}
	return pframe{sys: s, steps: steps, sleep: sleepMask, todo: todo, wide: isNew && len(steps) > 64}, true, nil
}
