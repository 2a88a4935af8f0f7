// Package sim provides a small deterministic discrete-event simulation
// kernel. Components schedule callbacks at future times; ties are broken by
// schedule order, so a run is fully reproducible given the same inputs.
//
// The timed machine in internal/machine (processors, caches, directory,
// interconnect) is built on this kernel; the operational exploration layer in
// internal/model does not use it (exploration is untimed).
//
// The scheduler is a calendar queue: a fixed-size timing wheel of per-cycle
// slots holding value-typed events, with a binary min-heap fallback for
// events scheduled beyond the wheel horizon. Slot buffers and the overflow
// heap's backing array are recycled, so steady-state scheduling is
// allocation-free, and a whole cycle's slot is dispatched as one batch.
package sim

import "fmt"

// Time is simulated time in cycles.
type Time int64

// Sink is a destination for a value-typed delivery event. Fabrics schedule
// message arrival through DeliverAt instead of a closure so that the hot
// send path does not allocate.
type Sink interface {
	DeliverEvent(src int, msg any)
}

// event is a scheduled callback (fn) or delivery (sink/src/msg), stored by
// value in slot buffers and the overflow heap.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	sink Sink
	src  int
	msg  any
}

// wheelSize is the calendar horizon in cycles. Events scheduled less than
// wheelSize cycles ahead land in their cycle's slot; anything further goes to
// the overflow heap. All latencies in the timed machine (hit, memory,
// network, bus) are far below this, so in steady state the overflow heap only
// sees watchdog and deep-backoff timers.
const (
	wheelSize = 1 << 10
	wheelMask = wheelSize - 1
)

// slot is one wheel cycle's batch of events, appended in schedule (seq)
// order. head marks how many have been dispatched; buffers are reset, not
// freed, so a warmed-up wheel never allocates.
type slot struct {
	head int
	evs  []event
}

// overflow is a value-typed min-heap ordered by (at, seq) for events beyond
// the wheel horizon.
type overflow struct {
	h []event
}

func (o *overflow) len() int    { return len(o.h) }
func (o *overflow) top() *event { return &o.h[0] }

func (o *overflow) less(i, j int) bool {
	if o.h[i].at != o.h[j].at {
		return o.h[i].at < o.h[j].at
	}
	return o.h[i].seq < o.h[j].seq
}

func (o *overflow) push(ev event) {
	o.h = append(o.h, ev)
	i := len(o.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(i, p) {
			break
		}
		o.h[i], o.h[p] = o.h[p], o.h[i]
		i = p
	}
}

func (o *overflow) pop() event {
	ev := o.h[0]
	n := len(o.h) - 1
	o.h[0] = o.h[n]
	o.h[n] = event{}
	o.h = o.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && o.less(l, s) {
			s = l
		}
		if r < n && o.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		o.h[i], o.h[s] = o.h[s], o.h[i]
		i = s
	}
	return ev
}

// Clock is the read-only view of simulated time that instrumentation layers
// (internal/metrics) depend on: they timestamp observations but must never
// schedule events, so handing them a Clock instead of the Engine makes the
// zero-overhead-when-disabled argument checkable at the type level.
type Clock interface {
	Now() Time
}

// Engine is the discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	steps  uint64
	maxT   Time
	budget uint64
	failed error

	live  int // events resident in wheel slots
	over  overflow
	wheel [wheelSize]slot
}

// NewEngine returns a calendar-queue engine at time zero. maxTime bounds
// simulated time and maxEvents bounds the number of dispatched events; either
// being exceeded makes Run return ErrBudget. Pass 0 for no bound.
func NewEngine(maxTime Time, maxEvents uint64) *Engine {
	return &Engine{maxT: maxTime, budget: maxEvents}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.steps }

// ErrSchedulePast is the sentinel matched (via errors.Is) by the
// ScheduleError recorded when a component schedules an event before the
// current time.
var ErrSchedulePast = fmt.Errorf("sim: schedule before now")

// ScheduleError reports a past-time scheduling attempt: a component bug, but
// surfaced as a run failure (like ErrProtocol in the cache layer) instead of
// a panic so harnesses can report it alongside the offending configuration.
type ScheduleError struct {
	At, Now Time
}

func (s *ScheduleError) Error() string {
	return fmt.Sprintf("sim: schedule at %d before now %d", s.At, s.Now)
}

// Is makes errors.Is(err, ErrSchedulePast) match.
func (s *ScheduleError) Is(target error) bool { return target == ErrSchedulePast }

// At schedules fn to run at the absolute time t. Scheduling in the past
// always indicates a component bug: the event is dropped and the run fails
// with a ScheduleError before the next dispatch.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		e.Fail(&ScheduleError{At: t, Now: e.now})
		return
	}
	e.seq++
	e.place(event{at: t, seq: e.seq, fn: fn})
}

// DeliverAt schedules s.DeliverEvent(src, msg) at the absolute time t. The
// event is stored by value, so scheduling allocates nothing per call.
// Past-time scheduling fails the run exactly like At.
func (e *Engine) DeliverAt(t Time, s Sink, src int, msg any) {
	if t < e.now {
		e.Fail(&ScheduleError{At: t, Now: e.now})
		return
	}
	e.seq++
	e.place(event{at: t, seq: e.seq, sink: s, src: src, msg: msg})
}

// place files a value event into its wheel slot or the overflow heap.
func (e *Engine) place(ev event) {
	if ev.at-e.now < wheelSize {
		s := &e.wheel[ev.at&wheelMask]
		s.evs = append(s.evs, ev)
		e.live++
		return
	}
	e.over.push(ev)
}

// After schedules fn to run d cycles from now. d must be >= 0.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Fail aborts the simulation: Run stops dispatching and returns err before
// the next event. Components use it to surface protocol errors as values
// instead of panicking from deep inside an event callback. The first failure
// wins; later calls are ignored so cascading detections keep the root cause.
func (e *Engine) Fail(err error) {
	if e.failed == nil && err != nil {
		e.failed = err
	}
}

// Failed returns the error recorded by Fail, or nil.
func (e *Engine) Failed() error { return e.failed }

// ErrBudget is returned by Run when the time or event budget is exhausted
// before the event queue drains — usually a deadlock-free livelock (e.g. a
// spin loop that never observes its flag) or an unbounded retry storm.
var ErrBudget = fmt.Errorf("sim: time or event budget exhausted")

// Run dispatches events until the queue is empty, until the predicate done
// (if non-nil) returns true, or until a budget is exceeded. It returns nil on
// a drained queue or satisfied predicate.
//
// Each iteration advances to the next populated cycle, then drains that
// cycle's slot as one batch, merging in any overflow events that carry the
// same timestamp (an event scheduled from far away can share a cycle with
// one scheduled inside the horizon; schedule order must still break the tie,
// so the merge compares sequence numbers).
func (e *Engine) Run(done func() bool) error {
	for e.live > 0 || e.over.len() > 0 {
		if e.failed != nil {
			return e.failed
		}
		if done != nil && done() {
			return nil
		}
		e.now = e.nextTime()
		if e.maxT > 0 && e.now > e.maxT {
			return ErrBudget
		}
		s := &e.wheel[e.now&wheelMask]
		// Every event in this slot is for the current cycle: inserts always
		// satisfy at-now < wheelSize, so a slot never holds two laps at once.
		for {
			hasW := s.head < len(s.evs)
			hasO := e.over.len() > 0 && e.over.top().at == e.now
			if !hasW && !hasO {
				break
			}
			if e.failed != nil {
				return e.failed
			}
			if done != nil && done() {
				return nil
			}
			var ev event
			if hasW && (!hasO || s.evs[s.head].seq < e.over.top().seq) {
				ev = s.evs[s.head]
				s.evs[s.head] = event{}
				s.head++
				e.live--
			} else {
				ev = e.over.pop()
			}
			e.steps++
			if e.budget > 0 && e.steps > e.budget {
				return ErrBudget
			}
			if ev.sink != nil {
				ev.sink.DeliverEvent(ev.src, ev.msg)
			} else {
				ev.fn()
			}
		}
		s.evs = s.evs[:0]
		s.head = 0
	}
	return e.finish(done)
}

// nextTime finds the earliest populated cycle: the wheel is scanned forward
// from now (any resident event is within wheelSize cycles, and the scan
// pointer only moves with time, so the cost amortizes to O(1) per event),
// bounded by the overflow heap's minimum.
func (e *Engine) nextTime() Time {
	best := Time(-1)
	if e.over.len() > 0 {
		best = e.over.top().at
	}
	if e.live > 0 {
		for d := Time(0); d < wheelSize; d++ {
			t := e.now + d
			if best >= 0 && t > best {
				break
			}
			s := &e.wheel[t&wheelMask]
			if s.head < len(s.evs) {
				return t
			}
		}
	}
	return best
}

func (e *Engine) finish(done func() bool) error {
	if e.failed != nil {
		return e.failed
	}
	if done != nil && !done() {
		// The queue drained but the machine did not reach its goal: the
		// system deadlocked (nothing left to do).
		return ErrDeadlock
	}
	return nil
}

// ErrDeadlock is returned by Run when the event queue drains before the
// completion predicate holds. The paper argues (Section 5.3) that its
// implementation never deadlocks; the timed simulator surfaces violations of
// that argument as this error.
var ErrDeadlock = fmt.Errorf("sim: deadlock (event queue drained before completion)")

// Pending returns the number of undelivered events.
func (e *Engine) Pending() int { return e.live + e.over.len() }
