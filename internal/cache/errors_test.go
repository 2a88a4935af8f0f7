package cache

import (
	"errors"
	"strings"
	"testing"

	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
)

// ownLine gives c an Exclusive copy of a (value v) by running a full GetX
// transaction.
func ownLine(t *testing.T, r *rig, c *Cache, a mem.Addr, v mem.Value) {
	t.Helper()
	acquireExclusive(c, a, false, func(mem.Value) { c.WriteLocal(a, v) }, nil)
	r.run(t)
	if c.State(a) != Exclusive {
		t.Fatalf("setup: line x%d state = %s, want E", a, c.State(a))
	}
}

// TestProtocolErrors provokes, one by one, every condition that used to crash
// the simulator with panic() — plus the strict-mode message checks added with
// the fault-tolerance work — and asserts each surfaces as an ErrProtocol
// through the engine instead.
func TestProtocolErrors(t *testing.T) {
	cases := []struct {
		name string
		// provoke drives the rig into the violating state.
		provoke func(t *testing.T, r *rig)
		// reason must appear in the resulting ProtocolError.
		reason string
	}{
		// Former panics in cache.go.
		{"counter underflow", func(t *testing.T, r *rig) {
			r.c0.decCounter(false)
		}, "counter went negative"},
		{"AcquireShared on busy MSHR", func(t *testing.T, r *rig) {
			acquireShared(r.c0, 1, false, func(mem.Value) {})
			acquireShared(r.c0, 1, false, func(mem.Value) {})
		}, "AcquireShared with busy MSHR"},
		{"AcquireExclusive on busy MSHR", func(t *testing.T, r *rig) {
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
		}, "AcquireExclusive with busy MSHR"},
		{"WriteUpdate on busy MSHR", func(t *testing.T, r *rig) {
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
			r.c0.WriteUpdate(1, 5, nil, IssueCtx{})
		}, "WriteUpdate with busy MSHR"},
		{"WriteLocal to non-exclusive line", func(t *testing.T, r *rig) {
			r.c0.WriteLocal(9, 1)
		}, "WriteLocal to non-exclusive"},
		{"Reserve on non-exclusive line", func(t *testing.T, r *rig) {
			r.c0.Reserve(9)
		}, "Reserve on non-exclusive"},
		{"non-protocol message at cache", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, "not a protocol message")
		}, "non-protocol message"},
		{"request delivered to cache", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, &Msg{Kind: MsgGetS, Addr: 1})
		}, "unexpected GetS"},
		{"Data with no MSHR", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, &Msg{Kind: MsgData, Addr: 1, Value: 3})
		}, "Data for x1 with no MSHR"},
		{"WriteAck with no MSHR", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, &Msg{Kind: MsgWriteAck, Addr: 1})
		}, "WriteAck for x1 with no MSHR"},
		{"forward for unowned line", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, &Msg{Kind: MsgFwdS, Addr: 1, Requester: 1})
		}, "we do not own"},
		{"serviced forward after losing the line", func(t *testing.T, r *rig) {
			r.c0.serviceFwd(2, Msg{Kind: MsgFwdX, Addr: 9, Requester: 1})
		}, "no longer own"},
		{"serviceFwd of a non-forward", func(t *testing.T, r *rig) {
			ownLine(t, r, r.c0, 1, 7)
			r.c0.serviceFwd(2, Msg{Kind: MsgData, Addr: 1})
		}, "serviceFwd of Data"},

		// Strict-mode checks on the recovery machinery (lenient mode tolerates
		// these; without faults they are protocol bugs).
		{"Data with stale seq", func(t *testing.T, r *rig) {
			acquireShared(r.c0, 1, false, func(mem.Value) {})
			r.c0.Deliver(2, &Msg{Kind: MsgData, Addr: 1, Seq: 99})
		}, "stale seq"},
		{"duplicate Data", func(t *testing.T, r *rig) {
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
			r.c0.Deliver(2, &Msg{Kind: MsgData, Addr: 1, Seq: 1, Excl: true})
			r.c0.Deliver(2, &Msg{Kind: MsgData, Addr: 1, Seq: 1, Excl: true})
		}, "duplicate Data"},
		{"WriteAck with stale seq", func(t *testing.T, r *rig) {
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
			r.c0.Deliver(2, &Msg{Kind: MsgWriteAck, Addr: 1, Seq: 99})
		}, "stale seq"},
		{"stale invalidation", func(t *testing.T, r *rig) {
			ownLine(t, r, r.c0, 1, 7)
			r.c0.Deliver(2, &Msg{Kind: MsgInv, Addr: 1, Epoch: 1})
		}, "stale Inv"},
		{"stale forward", func(t *testing.T, r *rig) {
			ownLine(t, r, r.c0, 1, 7)
			r.c0.Deliver(2, &Msg{Kind: MsgFwdS, Addr: 1, Requester: 1, Epoch: 1})
		}, "stale FwdS"},
		{"Nack with no transaction", func(t *testing.T, r *rig) {
			r.c0.Deliver(2, &Msg{Kind: MsgNack, Addr: 1})
		}, "no matching transaction"},
		{"Nack with retries disabled", func(t *testing.T, r *rig) {
			acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
			r.c0.Deliver(2, &Msg{Kind: MsgNack, Addr: 1, Seq: 1})
		}, "retries are disabled"},

		// Former panics in directory.go.
		{"non-protocol message at directory", func(t *testing.T, r *rig) {
			r.dir.Deliver(0, 42)
		}, "non-protocol message"},
		{"response delivered to directory", func(t *testing.T, r *rig) {
			r.dir.Deliver(0, &Msg{Kind: MsgData, Addr: 1})
		}, "unexpected Data"},
		{"directory processing a non-request", func(t *testing.T, r *rig) {
			r.dir.process(r.dir.line(1), 0, Msg{Kind: MsgData, Addr: 1})
		}, "process Data"},
		{"stray InvAck", func(t *testing.T, r *rig) {
			r.dir.Deliver(0, &Msg{Kind: MsgInvAck, Addr: 5})
		}, "stray InvAck"},
		{"stray Downgrade", func(t *testing.T, r *rig) {
			r.dir.Deliver(0, &Msg{Kind: MsgDowngrade, Addr: 5})
		}, "stray Downgrade"},
		{"stray Transfer", func(t *testing.T, r *rig) {
			r.dir.Deliver(0, &Msg{Kind: MsgTransfer, Addr: 5})
		}, "stray Transfer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, map[mem.Addr]mem.Value{1: 0})
			tc.provoke(t, r)
			err := r.engine.Failed()
			if err == nil {
				// Some provocations need the event loop to surface the error.
				err = r.engine.Run(nil)
			}
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T, want *ProtocolError", err)
			}
			if !strings.Contains(pe.Reason, tc.reason) {
				t.Errorf("reason %q does not contain %q", pe.Reason, tc.reason)
			}
			if pe.Error() == "" {
				t.Error("empty Error() rendering")
			}
		})
	}
}

// dropFabric wraps a fabric and silently discards messages selected by drop —
// a deterministic single-fault harness for the retry and watchdog paths.
type dropFabric struct {
	interconnect.Fabric
	drop func(src, dst interconnect.NodeID, m interconnect.Message) bool
}

func (f *dropFabric) Send(src, dst interconnect.NodeID, m interconnect.Message) {
	if f.drop != nil && f.drop(src, dst, m) {
		return
	}
	f.Fabric.Send(src, dst, m)
}

// newDropRig builds the standard rig with a dropping fabric between the nodes.
func newDropRig(t *testing.T, drop func(src, dst interconnect.NodeID, m interconnect.Message) bool) *rig {
	t.Helper()
	r := newRig(t, map[mem.Addr]mem.Value{1: 0})
	// Rewire all three endpoints onto the dropping fabric. Attach replaces
	// the endpoint registration; Send interposition is what matters.
	df := &dropFabric{Fabric: r.c0.fabric, drop: drop}
	r.c0.fabric = df
	r.c1.fabric = df
	r.dir.fabric = df
	return r
}

// TestRetryRecoversFromDroppedRequest drops the first GetS and asserts the
// retransmission timer completes the access anyway.
func TestRetryRecoversFromDroppedRequest(t *testing.T) {
	dropped := false
	r := newDropRig(t, func(src, dst interconnect.NodeID, m interconnect.Message) bool {
		if msg, ok := m.(*Msg); ok && msg.Kind == MsgGetS && !dropped {
			dropped = true
			return true
		}
		return false
	})
	r.c0.SetRetry(20, 3)
	var got mem.Value = -1
	acquireShared(r.c0, 1, false, func(v mem.Value) { got = v })
	r.run(t)
	if !dropped {
		t.Fatal("setup never dropped the request")
	}
	if got != 0 {
		t.Fatalf("read = %d, want 0 (recovered by retry)", got)
	}
	if n := r.c0.Stats.Get("request_retries"); n != 1 {
		t.Errorf("request_retries = %d, want 1", n)
	}
}

// TestRetryBudgetExhausts drops every GetX and asserts the bounded budget
// surfaces ErrRetryExhausted (which is also an ErrProtocol).
func TestRetryBudgetExhausts(t *testing.T) {
	r := newDropRig(t, func(src, dst interconnect.NodeID, m interconnect.Message) bool {
		msg, ok := m.(*Msg)
		return ok && msg.Kind == MsgGetX
	})
	r.c0.SetRetry(10, 2)
	acquireExclusive(r.c0, 1, false, func(mem.Value) {}, nil)
	err := r.engine.Run(nil)
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Error("ErrRetryExhausted must also match ErrProtocol")
	}
}

// TestWatchdogNamesStuckTransaction kills the directory's forward so the
// transaction can never close, and asserts the watchdog aborts the run with
// ErrWatchdog instead of spinning forever.
func TestWatchdogNamesStuckTransaction(t *testing.T) {
	r := newDropRig(t, func(src, dst interconnect.NodeID, m interconnect.Message) bool {
		msg, ok := m.(*Msg)
		return ok && (msg.Kind == MsgFwdX || msg.Kind == MsgFwdS)
	})
	r.dir.EnableWatchdog(50, 200)
	ownLine(t, r, r.c0, 1, 7)
	acquireExclusive(r.c1, 1, false, func(mem.Value) {}, nil)
	err := r.engine.Run(nil)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) || !pe.Dir {
		t.Fatalf("err = %v, want a directory-attributed ProtocolError", err)
	}
	if !strings.Contains(pe.Reason, "x1") {
		t.Errorf("watchdog reason %q does not name the stuck line", pe.Reason)
	}
}

// TestLenientToleratesFabricArtifacts delivers messages only explainable as
// fabric faults to lenient endpoints and asserts they are counted, not fatal.
func TestLenientToleratesFabricArtifacts(t *testing.T) {
	r := newRig(t, map[mem.Addr]mem.Value{1: 0})
	r.c0.SetLenient(true)
	r.dir.SetLenient(true)
	r.c0.Deliver(2, &Msg{Kind: MsgData, Addr: 1, Value: 3}) // stale Data
	r.dir.Deliver(0, &Msg{Kind: MsgInvAck, Addr: 5})        // stray ack
	r.dir.Deliver(0, &Msg{Kind: MsgTransfer, Addr: 5})      // stray transfer
	if err := r.engine.Failed(); err != nil {
		t.Fatalf("lenient mode failed the run: %v", err)
	}
	if n := r.c0.Stats.Get("tolerated_stale_data"); n != 1 {
		t.Errorf("tolerated_stale_data = %d, want 1", n)
	}
	if n := r.dir.Stats.Get("tolerated_stray_ack"); n != 1 {
		t.Errorf("tolerated_stray_ack = %d, want 1", n)
	}
	if n := r.dir.Stats.Get("tolerated_stray_transfer"); n != 1 {
		t.Errorf("tolerated_stray_transfer = %d, want 1", n)
	}
	// The protocol still works afterwards.
	var got mem.Value = -1
	acquireShared(r.c1, 1, false, func(v mem.Value) { got = v })
	r.run(t)
	if got != 0 {
		t.Fatalf("read after tolerated artifacts = %d, want 0", got)
	}
}
