package sim

import (
	"errors"
	"testing"
)

// queues runs a subtest's scenario through each of the engine's two event
// stores: "calendar" schedules it at time base 0, inside the wheel horizon;
// "heap" shifts it past the horizon, so its first events wait in the
// overflow heap and dispatch from there.
var queues = map[string]Time{
	"calendar": 0,
	"heap":     2 * wheelSize,
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(0, 0)
	var got []int
	e.At(5, func() { got = append(got, 2) })
	e.At(3, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 3) }) // same time: schedule order
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 5 {
		t.Errorf("final time = %d, want 5", e.Now())
	}
	if e.Steps() != 3 {
		t.Errorf("steps = %d, want 3", e.Steps())
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := NewEngine(0, 0)
	var times []Time
	var tick func()
	n := 0
	tick = func() {
		times = append(times, e.Now())
		n++
		if n < 4 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10, 20, 30}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestEngineSchedulePastFails(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			ran := false
			e.At(base+10, func() {
				e.At(base+5, func() { ran = true })
			})
			err := e.Run(nil)
			if !errors.Is(err, ErrSchedulePast) {
				t.Fatalf("err = %v, want ErrSchedulePast", err)
			}
			var se *ScheduleError
			if !errors.As(err, &se) || se.At != base+5 || se.Now != base+10 {
				t.Fatalf("err = %#v, want ScheduleError{At:%d, Now:%d}", err, base+5, base+10)
			}
			if ran {
				t.Error("past-time event must be dropped, not dispatched")
			}
		})
	}
}

func TestEngineTimeBudget(t *testing.T) {
	e := NewEngine(100, 0)
	var tick func()
	tick = func() { e.After(60, tick) }
	e.After(0, tick)
	if err := e.Run(nil); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine(0, 5)
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(0, tick)
	if err := e.Run(nil); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestEngineDonePredicate(t *testing.T) {
	e := NewEngine(0, 0)
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	err := e.Run(func() bool { return count >= 3 })
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3 (early stop)", count)
	}
	if e.Pending() != 7 {
		t.Errorf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	e := NewEngine(0, 0)
	e.At(1, func() {})
	err := e.Run(func() bool { return false })
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestEngineDrainEmptyNilDone(t *testing.T) {
	e := NewEngine(0, 0)
	if err := e.Run(nil); err != nil {
		t.Fatalf("empty queue with nil done should succeed: %v", err)
	}
}
