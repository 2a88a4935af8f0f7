package machine

import (
	"testing"

	"weakorder/internal/proc"
	"weakorder/internal/workload"
)

// TestTimedRunAllocsIndependentOfLength pins the allocation-free hot path: a
// fault-free default-config run allocates for composing the machine and
// warming its buffers, not per event, message or transaction. Quadrupling
// the work on the E13 shape (lock acquisitions per processor, 2 → 8) must
// grow the allocation count by less than 10%.
func TestTimedRunAllocsIndependentOfLength(t *testing.T) {
	allocs := func(acquires int) (float64, uint64) {
		p := workload.Lock(64, acquires, 10, 10, workload.SpinSync)
		cfg := NewConfig(proc.PolicyWODef2)
		var msgs uint64
		n := testing.AllocsPerRun(2, func() {
			r, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			msgs = r.Messages
		})
		return n, msgs
	}
	short, shortMsgs := allocs(2)
	long, longMsgs := allocs(8)
	t.Logf("allocations: %.0f at %d messages, %.0f at %d messages", short, shortMsgs, long, longMsgs)
	if longMsgs < 3*shortMsgs {
		t.Fatalf("the long run sent %d messages against %d: the workload no longer scales", longMsgs, shortMsgs)
	}
	if long >= 1.1*short {
		t.Errorf("allocations grow with run length: %.0f at 8 acquisitions per processor, %.0f at 2 (limit 1.1x)", long, short)
	}
}
