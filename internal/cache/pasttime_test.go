package cache

import (
	"errors"
	"testing"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/sim"
)

// TestSchedulePastSurfacesThroughCacheCallbacks drives the two callback seams
// the processor schedules continuation work through — OnFree (the MSHR
// same-address stall) and OnCounterZero (Definition 1's issue wait) — and
// asserts a past-time schedule issued from inside either callback surfaces
// from engine.Run as the typed sim.ErrSchedulePast, not a panic and not a
// silently dropped event. This is the propagation contract the proc package
// relies on: every continuation it schedules after a cache callback runs on
// the engine, so a time-arithmetic bug anywhere in that chain must become a
// diagnosable run failure.
func TestSchedulePastSurfacesThroughCacheCallbacks(t *testing.T) {
	t.Run("OnFree", func(t *testing.T) {
		r := newRig(t, map[mem.Addr]mem.Value{7: 1})
		// Open a transaction so address 7 is Busy, then register an OnFree
		// continuation that (buggily) schedules into the past when it fires.
		acquireShared(r.c0, 7, false, func(v mem.Value) {})
		if !r.c0.Busy(7) {
			t.Fatal("address 7 should have an open MSHR")
		}
		r.c0.OnFree(7, func() {
			r.engine.At(0, func() {}) // fires at transaction completion, now > 0
		})
		err := r.engine.Run(nil)
		if !errors.Is(err, sim.ErrSchedulePast) {
			t.Fatalf("Run = %v, want ErrSchedulePast", err)
		}
	})
	t.Run("OnCounterZero", func(t *testing.T) {
		r := newRig(t, map[mem.Addr]mem.Value{7: 1})
		acquireShared(r.c0, 7, false, func(v mem.Value) {})
		if r.c0.Counter() == 0 {
			t.Fatal("counter should be nonzero with a transaction outstanding")
		}
		r.c0.OnCounterZero(func() {
			r.engine.At(0, func() {})
		})
		err := r.engine.Run(nil)
		if !errors.Is(err, sim.ErrSchedulePast) {
			t.Fatalf("Run = %v, want ErrSchedulePast", err)
		}
	})
}

// TestRetryPathNeverSchedulesPast exercises the MSHR retransmission caller:
// a deep retry schedule against a directory that drops every request. The
// "calendar" schedule starts with timers inside the engine's 1024-cycle
// wheel horizon; the "heap" schedule's timeout is past the horizon, so every
// timer waits in the engine's overflow heap. The run must end in the retry
// machinery's own typed error — with ErrSchedulePast never recorded along
// the way. If the backoff clamp regressed (the historical overflow made
// `timeout << attempts` negative), this run would fail with ErrSchedulePast
// instead, and the assertion names the guilty caller.
func TestRetryPathNeverSchedulesPast(t *testing.T) {
	for name, timeout := range map[string]sim.Time{"calendar": 128, "heap": 2048} {
		t.Run(name, func(t *testing.T) {
			engine := sim.NewEngine(0, 0)
			net := interconnect.NewNetwork(engine, 1, 0, nil, true)
			net.Attach(1, blackhole{})
			c := New(0, engine, net, new(MsgPool), 1, 1)
			c.SetRetry(timeout, 80) // deep enough to cross the old overflow threshold
			acquireShared(c, 2, false, func(v mem.Value) {})
			err := engine.Run(nil)
			if errors.Is(err, sim.ErrSchedulePast) {
				t.Fatalf("MSHR retransmission scheduled into the past: %v", err)
			}
			if !errors.Is(err, ErrRetryExhausted) {
				t.Fatalf("Run = %v, want ErrRetryExhausted", err)
			}
		})
	}
}
