package cache

import (
	"errors"
	"testing"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
	"weakorder/internal/sim"
)

// TestBackoffClamp pins the clamped exponential-backoff schedule. The
// regression: the old `retryTimeout << uint(attempts)` shifted unbounded, so
// attempt counts past ~55 drove the delay through the int64 sign bit and the
// engine panicked scheduling an event in the past.
func TestBackoffClamp(t *testing.T) {
	cases := []struct {
		timeout  sim.Time
		attempts int
		want     sim.Time
	}{
		{0, 5, 0},     // retries disabled
		{-3, 5, 0},    // nonsense timeout
		{100, 0, 100}, // first attempt: base timeout
		{100, 3, 800}, // doubling below the clamp
		{100, maxBackoffShift, 100 << maxBackoffShift}, // at the clamp
		{100, maxBackoffShift + 1, 100 << maxBackoffShift},
		{100, 63, 100 << maxBackoffShift},  // old code: negative delay, panic
		{100, 200, 100 << maxBackoffShift}, // old code: shift >= 64, zero delay
		{100, -1, 100},                     // defensive: treat as attempt 0
		{maxBackoffTotal + 1, 0, maxBackoffTotal},
		{maxBackoffTotal / 2, 5, maxBackoffTotal}, // product saturates
	}
	for _, tc := range cases {
		got := backoffFor(tc.timeout, tc.attempts)
		if got != tc.want {
			t.Errorf("backoffFor(%d, %d) = %d, want %d", tc.timeout, tc.attempts, got, tc.want)
		}
		if got < 0 {
			t.Errorf("backoffFor(%d, %d) went negative", tc.timeout, tc.attempts)
		}
	}
}

// TestBackoffBudget checks the watchdog-grace derivation: the sum of every
// clamped backoff across the retry budget, monotone in the limit, saturating
// instead of overflowing.
func TestBackoffBudget(t *testing.T) {
	if got := BackoffBudget(0, 8); got != 0 {
		t.Errorf("budget with retries disabled = %d", got)
	}
	// limit 2 => attempts 0..3: 100+200+400+800.
	if got := BackoffBudget(100, 2); got != 1500 {
		t.Errorf("BackoffBudget(100, 2) = %d, want 1500", got)
	}
	small, large := BackoffBudget(100, 4), BackoffBudget(100, 8)
	if small >= large {
		t.Errorf("budget not monotone: limit 4 -> %d, limit 8 -> %d", small, large)
	}
	if got := BackoffBudget(100, 10_000); got <= 0 || got > maxBackoffTotal {
		t.Errorf("deep budget out of range: %d", got)
	}
	if got := BackoffBudget(100, 500_000); got != maxBackoffTotal {
		t.Errorf("huge budget should saturate at %d, got %d", maxBackoffTotal, got)
	}
	if got := BackoffBudget(maxBackoffTotal, 10_000); got != maxBackoffTotal {
		t.Errorf("huge timeout should saturate at %d, got %d", maxBackoffTotal, got)
	}
}

// TestRetryHighAttemptsNoOverflow drives a cache transaction through a deep
// retry schedule: the directory endpoint is replaced by a sink that drops
// every request, the retry limit is far beyond the overflow threshold, and
// the time budget is opened wide so the exponential schedule actually runs.
// With the unclamped shift this panicked ("sim: schedule at ... before now")
// around attempt 57; now the run must end in a clean ErrRetryExhausted.
func TestRetryHighAttemptsNoOverflow(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("retry schedule panicked: %v", r)
		}
	}()
	engine := sim.NewEngine(0, 0) // no time/event budget: let the schedule run
	net := interconnect.NewNetwork(engine, 1, 0, nil, true)
	net.Attach(1, blackhole{}) // the "directory" silently eats every request
	c := New(0, engine, net, new(MsgPool), 1, 1)
	c.SetRetry(128, 100)
	fired := false
	acquireShared(c, 2, false, func(v mem.Value) { fired = true })
	err := engine.Run(nil)
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
	if fired {
		t.Error("read completed although every request was dropped")
	}
}

// blackhole is an endpoint that drops everything it receives.
type blackhole struct{}

func (blackhole) Deliver(interconnect.NodeID, interconnect.Message) {}
