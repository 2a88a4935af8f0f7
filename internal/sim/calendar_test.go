package sim

import (
	"cmp"
	"errors"
	"slices"
	"testing"
)

// recSink records deliveries so tests can check their dispatch order.
type recSink struct {
	log *[]int64
}

func (r recSink) DeliverEvent(src int, msg any) {
	*r.log = append(*r.log, int64(src)*1000000+msg.(int64))
}

// TestCalendarDispatchOrder drives the engine through a pseudo-random event
// storm — self-rescheduling callbacks, bursts at shared timestamps,
// horizon-crossing delays that route events through the overflow heap — and
// checks the dispatch log against the engine's contract written out: every
// scheduled event runs exactly once, at the time it was scheduled for, in
// (time, schedule order) order.
func TestCalendarDispatchOrder(t *testing.T) {
	type entry struct {
		id int // schedule order
		at Time
	}
	e := NewEngine(0, 0)
	var scheduled, dispatched []entry
	// Deterministic LCG so the storm is the same on every run.
	state := uint64(12345)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	var spawn func(at Time, depth int)
	spawn = func(at Time, depth int) {
		me := entry{id: len(scheduled), at: at}
		scheduled = append(scheduled, me)
		e.At(at, func() {
			dispatched = append(dispatched, entry{id: me.id, at: e.Now()})
			if depth >= 6 {
				return
			}
			k := int(next(3)) // 0..2 children
			for c := 0; c < k; c++ {
				var d Time
				switch next(4) {
				case 0:
					d = 0 // same-cycle batch
				case 1:
					d = Time(next(8)) // dense near future
				case 2:
					d = Time(next(200)) // mid horizon
				default:
					d = wheelSize - 2 + Time(next(6)) // straddles the horizon
				}
				spawn(e.Now()+d, depth+1)
			}
		})
	}
	for i := 0; i < 20; i++ {
		spawn(Time(next(uint64(2*wheelSize))), 0)
	}
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
	want := slices.Clone(scheduled)
	slices.SortStableFunc(want, func(a, b entry) int { return cmp.Compare(a.at, b.at) })
	if len(dispatched) != len(want) {
		t.Fatalf("dispatched %d events, scheduled %d", len(dispatched), len(want))
	}
	for i := range want {
		if dispatched[i] != want[i] {
			t.Fatalf("dispatch %d: got %+v, want %+v (time, then schedule order)", i, dispatched[i], want[i])
		}
	}
	if len(want) < 100 {
		t.Fatalf("storm scheduled only %d events", len(want))
	}
}

// TestCalendarOverflowMerge pins the subtle tie: an event scheduled from far
// away lands in the overflow heap, a later-scheduled event for the same cycle
// lands in the wheel, and the earlier schedule (smaller seq, here the
// overflow one) must still dispatch first.
func TestCalendarOverflowMerge(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			target := base + 2*wheelSize
			var got []int
			e.At(target, func() { got = append(got, 1) }) // beyond horizon: overflow
			e.At(target-10, func() {                      // within horizon of target when it runs
				e.At(target, func() { got = append(got, 2) }) // wheel
			})
			e.At(target, func() { got = append(got, 3) }) // overflow again
			if err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
				t.Fatalf("order = %v, want [1 3 2] (schedule order within the cycle)", got)
			}
		})
	}
}

// TestDeliverAtOrdersWithAt checks value-typed deliveries interleave with
// closure events in strict schedule order, from both event stores.
func TestDeliverAtOrdersWithAt(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			var log []int64
			s := recSink{log: &log}
			e.DeliverAt(base+5, s, 1, int64(10))
			e.At(base+5, func() { log = append(log, -1) })
			e.DeliverAt(base+5, s, 2, int64(20))
			e.At(base+3, func() { log = append(log, -2) })
			if err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
			want := []int64{-2, 1000010, -1, 2000020}
			if !slices.Equal(log, want) {
				t.Fatalf("log = %v, want %v", log, want)
			}
		})
	}
}

// TestDeliverAtPastFails mirrors the At past-time contract for the delivery
// fast path.
func TestDeliverAtPastFails(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			var log []int64
			s := recSink{log: &log}
			e.At(base+10, func() { e.DeliverAt(base+5, s, 0, int64(1)) })
			if err := e.Run(nil); !errors.Is(err, ErrSchedulePast) {
				t.Fatalf("err = %v, want ErrSchedulePast", err)
			}
			if len(log) != 0 {
				t.Error("past-time delivery must be dropped")
			}
		})
	}
}

// TestCalendarSteadyStateAllocFree: once the wheel's slot buffers are warm, a
// self-rescheduling workload must not allocate per event.
func TestCalendarSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(0, 0)
	n := 0
	limit := 0
	var tick func()
	tick = func() {
		n++
		if n < limit {
			e.After(1, tick)
		}
	}
	// Warm every slot: time keeps advancing across runs, so the whole wheel
	// must have seen at least one event before allocations are counted.
	n, limit = 0, 2*wheelSize
	e.After(0, tick)
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	limit = 64
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		e.After(0, tick)
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state run allocated %.1f objects per run, want 0", allocs)
	}
}
