package sim

import (
	"errors"
	"testing"
)

// pastSink records deliveries for the DeliverAt variants.
type pastSink struct{ got int }

func (s *pastSink) DeliverEvent(src int, msg any) { s.got++ }

// TestSchedulePastTypedError pins the ErrSchedulePast contract from both
// event stores and through both scheduling entry points: a past-time
// At/DeliverAt records a ScheduleError, Run surfaces it as the typed error
// (errors.Is and errors.As both work), and the offending event is dropped,
// not dispatched.
func TestSchedulePastTypedError(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			t.Run("At", func(t *testing.T) {
				e := NewEngine(0, 0)
				ran := false
				e.At(base+10, func() {
					e.At(base+5, func() { ran = true }) // before now: component bug
				})
				err := e.Run(nil)
				if !errors.Is(err, ErrSchedulePast) {
					t.Fatalf("Run = %v, want ErrSchedulePast", err)
				}
				var se *ScheduleError
				if !errors.As(err, &se) {
					t.Fatalf("Run error %v does not unwrap to *ScheduleError", err)
				}
				if se.At != base+5 || se.Now != base+10 {
					t.Fatalf("ScheduleError{At:%d, Now:%d}, want {%d, %d}", se.At, se.Now, base+5, base+10)
				}
				if ran {
					t.Fatal("past-time event was dispatched")
				}
			})
			t.Run("DeliverAt", func(t *testing.T) {
				e := NewEngine(0, 0)
				s := &pastSink{}
				e.At(base+10, func() { e.DeliverAt(base+3, s, 0, "late") })
				if err := e.Run(nil); !errors.Is(err, ErrSchedulePast) {
					t.Fatalf("Run = %v, want ErrSchedulePast", err)
				}
				if s.got != 0 {
					t.Fatal("past-time delivery was dispatched")
				}
			})
		})
	}
}

// TestSchedulePastPreemptsPendingWork asserts the failure is not silently
// drowned out by remaining work: events already queued after the violation
// never run, so the typed error reaches the caller before any later state
// change could mask it.
func TestSchedulePastPreemptsPendingWork(t *testing.T) {
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			laterRan := false
			e.At(base+20, func() { laterRan = true })
			e.At(base+10, func() { e.At(base, func() {}) })
			if err := e.Run(nil); !errors.Is(err, ErrSchedulePast) {
				t.Fatalf("Run = %v, want ErrSchedulePast", err)
			}
			if laterRan {
				t.Fatal("event after the violation still ran")
			}
			if e.Now() != base+10 {
				t.Fatalf("engine advanced to %d after the failure, want %d", e.Now(), base+10)
			}
		})
	}
}

// TestSchedulePastFirstErrorWins pins Fail's first-error-wins rule for the
// schedule sentinel: a later, different failure does not replace the
// original ScheduleError root cause.
func TestSchedulePastFirstErrorWins(t *testing.T) {
	other := errors.New("secondary failure")
	for name, base := range queues {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(0, 0)
			e.At(base+10, func() {
				e.At(base+1, func() {})
				e.Fail(other)
			})
			err := e.Run(nil)
			if !errors.Is(err, ErrSchedulePast) {
				t.Fatalf("Run = %v, want the first (ScheduleError) failure", err)
			}
			if errors.Is(err, other) {
				t.Fatal("secondary failure replaced the ScheduleError root cause")
			}
		})
	}
}
