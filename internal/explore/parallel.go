// Parallel exploration: Explorer.Workers > 1 shards one Run across a pool of
// workers. The frontier is split over per-worker work-stealing deques (LIFO
// for the owner, FIFO for thieves, so stolen items are the shallowest — and
// therefore largest — pending subtrees), and the visited store becomes a
// striped concurrent store whose per-shard mutex linearizes all skip-mask
// transitions of any one state. Masks only ever shrink (monotonic
// intersection), and every bit removed is handed back to exactly one visit,
// which expands it — so the parallel search performs the same set of
// (state, mask) transitions as the serial kernel under an arbitrary frontier
// schedule, and reaches the same terminal-state set. Visit order, and with
// reduction enabled the Stats, are the only things scheduling can change.
// See DESIGN.md §"Parallel exploration" for the full soundness argument.
package explore

import (
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
// shards keep contention negligible at any realistic worker count.
const visitedShards = 64

// visitedShard is one stripe: the serial store behind its own mutex.
type visitedShard struct {
	mu sync.Mutex
	visitedSet
}

// stripedVisited is the concurrent visited store: states are assigned to
// shards by the last byte of their digest — in FullKeys mode too, where the
// digest routes but the full key bytes deduplicate — so a state's shard, and
// hence the mutex serializing its mask transitions, is a stable function of
// the state alone. Within a shard's table the digest's first word places the
// state, independently of its shard. A shard takes its table from the pool
// when its first state arrives, so a small run touches few tables.
type stripedVisited struct {
	budget  int64
	count   atomic.Int64 // distinct states committed (reservation-counted)
	reserve func() bool  // claims one budget slot for a first visit
	shards  [visitedShards]visitedShard
}

func newStripedVisited(fullKeys bool, budget int) *stripedVisited {
	v := &stripedVisited{budget: int64(budget)}
	v.reserve = func() bool {
		if v.count.Add(1) > v.budget {
			v.count.Add(-1)
			return false
		}
		return true
	}
	if fullKeys {
		for i := range v.shards {
			v.shards[i].visitedSet = newVisitedSet(true)
		}
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
	sh := &v.shards[sum[digest.Size-1]&(visitedShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.full == nil && sh.table == nil {
		sh.visitedSet = newVisitedSet(false)
	}
	return sh.visit(key, sum, all, skip, v.reserve)
}

// free hands every shard's table back to the pool.
func (v *stripedVisited) free() {
	for i := range v.shards {
		v.shards[i].free()
	}
}

// pool is the frontier of a parallel run: per-worker work-stealing deques,
// the count of published items not yet processed, the first error, and the
// parking lot of idle workers.
type pool struct {
	deques  []*wsDeque
	pending atomic.Int64 // items published but not yet fully processed

	errMu sync.Mutex
	err   error

	idleMu sync.Mutex
	idle   *sync.Cond
	idlers atomic.Int32
}

// runParallel is Run at width > 1.
func (x *Explorer) runParallel(sys TransitionSystem, final func(TransitionSystem) bool, width int) (Stats, error) {
	p := &pool{deques: make([]*wsDeque, width)}
	p.idle = sync.NewCond(&p.idleMu)
	for i := range p.deques {
		p.deques[i] = &wsDeque{}
	}
	p.pending.Store(1)
	p.deques[0].push(workItem{sys: sys.Clone(nil)})
	r := &run{x: x, visited: newStripedVisited(x.FullKeys, x.budget()), final: final, pool: p}
	defer r.visited.free()
	workers := make([]*worker, width)
	var wg sync.WaitGroup
	for id := range workers {
		w := r.newWorker(id)
		workers[id] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	var st Stats
	for _, w := range workers {
		st.States += w.stats.States
		st.Transitions += w.stats.Transitions
		st.Finals += w.stats.Finals
		st.Truncated += w.stats.Truncated
		w.release()
	}
	return st, p.err
}

// work is one parallel worker's loop: take an item, explore its subtree,
// retire it.
func (r *run) work(w *worker) {
	for {
		it, ok := r.take(w.id)
		if !ok {
			return
		}
		if err := w.process(it); err != nil {
			r.fail(err)
		}
		if r.pending.Add(-1) == 0 {
			r.wakeAll()
		}
	}
}

// take returns the next work item for worker id: local pop first, then a
// steal sweep over the other deques, then — if work may still appear — park
// on the idle cond. The idler count is published under idleMu before the
// rechecks, and publishers push before reading it, so a publish racing a
// failed scan is always caught by the recheck and never sleeps through.
func (r *run) take(id int) (workItem, bool) {
	for {
		if r.stop.Load() {
			return workItem{}, false
		}
		if it, ok := r.deques[id].pop(); ok {
			return it, true
		}
		for off := 1; off < len(r.deques); off++ {
			d := r.deques[(id+off)%len(r.deques)]
			if d.size.Load() == 0 {
				continue
			}
			if it, ok := d.steal(); ok {
				return it, true
			}
		}
		if r.pending.Load() == 0 {
			return workItem{}, false
		}
		r.idleMu.Lock()
		r.idlers.Add(1)
		if r.anyWork() || r.pending.Load() == 0 || r.stop.Load() {
			r.idlers.Add(-1)
			r.idleMu.Unlock()
			continue
		}
		r.idle.Wait()
		r.idlers.Add(-1)
		r.idleMu.Unlock()
	}
}

func (p *pool) anyWork() bool {
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
func (p *pool) publish(id int, it workItem) {
	p.pending.Add(1)
	p.deques[id].push(it)
	if p.idlers.Load() > 0 {
		p.idleMu.Lock()
		p.idle.Signal()
		p.idleMu.Unlock()
	}
}

func (p *pool) wakeAll() {
	p.idleMu.Lock()
	p.idle.Broadcast()
	p.idleMu.Unlock()
}

// fail records the first error and winds the pool down. "First" is first to
// acquire the mutex — under parallel scheduling there is no canonical first
// failure, only whether the run failed.
func (r *run) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.halt()
}

// process explores the subtree rooted at it, descending inline into the
// first pending child of every state (preserving the serial kernel's
// depth-first memory behavior) and publishing the remaining siblings as work
// items, newest pushed last so a lone worker pops them — and hence visits
// states — in exactly the serial pre-order.
func (w *worker) process(it workItem) error {
	r := w.run
	s, sleep := it.sys, it.sleep
	for !r.stop.Load() {
		f, descend, err := w.enter(s, sleep, &w.steps)
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
		inline := -1
		for i := f.nextPending(0); i < len(f.steps); i = f.nextPending(i + 1) {
			t := f.steps[i]
			covered := f.sleep | f.done
			f.done |= uint64(1) << i
			if inline < 0 {
				w.sleep = r.x.appendChildSleep(w.sleep[:0], f.steps, covered, t)
				inline = i
				continue
			}
			c := w.clone(f.sys)
			if err := w.apply(c, t); err != nil {
				return err
			}
			w.pubs = append(w.pubs, workItem{sys: c, sleep: r.x.appendChildSleep(nil, f.steps, covered, t)})
		}
		for i := len(w.pubs) - 1; i >= 0; i-- {
			r.publish(w.id, w.pubs[i])
		}
		clear(w.pubs)
		w.pubs = w.pubs[:0]
		if inline < 0 {
			// Defensive: enter never descends with nothing to expand.
			w.drop(f.sys)
			return nil
		}
		if err := w.apply(f.sys, f.steps[inline]); err != nil {
			return err
		}
		s, sleep = f.sys, w.sleep
	}
	return nil
}
