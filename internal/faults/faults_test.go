package faults

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"weakorder/internal/cache"
	"weakorder/internal/interconnect"
	"weakorder/internal/sim"
)

// sink records deliveries with arrival times.
type sink struct {
	engine *sim.Engine
	got    []arrival
}

type arrival struct {
	src interconnect.NodeID
	msg interconnect.Message
	at  sim.Time
}

func (s *sink) Deliver(src interconnect.NodeID, msg interconnect.Message) {
	s.got = append(s.got, arrival{src, msg, s.engine.Now()})
}

func req(i int) *cache.Msg  { return &cache.Msg{Kind: cache.MsgGetS, Addr: 1, Seq: uint64(i)} }
func resp(i int) *cache.Msg { return &cache.Msg{Kind: cache.MsgData, Addr: 1, Seq: uint64(i)} }

// TestZeroRatePassThrough pins the Injector's pass-through contract: with all
// rates zero, a run over the wrapped fabric is byte-identical to one over the
// bare fabric — same arrival stream, same message count, and an empty
// injection log, so wrapping is free when faults are off.
func TestZeroRatePassThrough(t *testing.T) {
	deliver := func(wrap bool) ([]arrival, uint64, int) {
		e := sim.NewEngine(0, 0)
		net := interconnect.NewNetwork(e, 5, 7, rand.New(rand.NewSource(42)), true)
		var fab interconnect.Fabric = net
		var inj *Injector
		if wrap {
			inj = NewInjector(e, net, 99, Rates{})
			fab = inj
		}
		s := &sink{engine: e}
		fab.Attach(1, s)
		fab.Attach(2, s)
		for i := 0; i < 20; i++ {
			fab.Send(0, interconnect.NodeID(1+i%2), resp(i))
		}
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		logLen := 0
		if inj != nil {
			logLen = len(inj.Log())
		}
		return s.got, fab.Messages(), logLen
	}
	bare, bareN, _ := deliver(false)
	wrapped, wrapN, logLen := deliver(true)
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("zero-rate injector changed the delivery stream:\nbare:    %v\nwrapped: %v", bare, wrapped)
	}
	if bareN != wrapN {
		t.Errorf("message counts diverged: bare %d, wrapped %d", bareN, wrapN)
	}
	if logLen != 0 {
		t.Errorf("zero-rate injector logged %d injections", logLen)
	}
}

// TestDelayFaultsPreserveLinkOrder pins the Delay gate: even with every
// message delayed by a random extra, per-(src,dst) delivery order matches
// send order, on both links, across seeds — a Delay fault models a slow FIFO
// link, never a misrouted message.
func TestDelayFaultsPreserveLinkOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		e := sim.NewEngine(0, 0)
		net := interconnect.NewNetwork(e, 3, 0, nil, true)
		inj := NewInjector(e, net, seed, Rates{Delay: 1, MaxDelay: 16})
		s1 := &sink{engine: e}
		s2 := &sink{engine: e}
		inj.Attach(1, s1)
		inj.Attach(2, s2)
		for i := 0; i < 10; i++ {
			dst := interconnect.NodeID(1 + i%2)
			e.At(sim.Time(i), func() { inj.Send(0, dst, resp(i)) })
		}
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*sink{s1, s2} {
			last := -1
			for _, a := range s.got {
				i := int(a.msg.(*cache.Msg).Seq)
				if i < last {
					t.Fatalf("seed %d: delay fault reordered a link: delivery order %v", seed, s.got)
				}
				last = i
			}
		}
		if len(s1.got)+len(s2.got) != 10 {
			t.Fatalf("seed %d: lost messages: %d+%d", seed, len(s1.got), len(s2.got))
		}
		if inj.Counts()["delay"] != 10 {
			t.Fatalf("seed %d: counts = %v, want 10 delays", seed, inj.Counts())
		}
	}
}

// TestReorderFaultsCanOvertake distinguishes Reorder from Delay: without the
// gate, a held message can be overtaken by later traffic on its own link.
// Sweep seeds until an overtake shows up.
func TestReorderFaultsCanOvertake(t *testing.T) {
	overtaken := false
	for seed := int64(0); seed < 50 && !overtaken; seed++ {
		e := sim.NewEngine(0, 0)
		net := interconnect.NewNetwork(e, 1, 0, nil, true)
		inj := NewInjector(e, net, seed, Rates{Reorder: 0.5, MaxDelay: 16})
		s := &sink{engine: e}
		inj.Attach(1, s)
		for i := 0; i < 10; i++ {
			e.At(sim.Time(i), func() { inj.Send(0, 1, resp(i)) })
		}
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, a := range s.got {
			i := int(a.msg.(*cache.Msg).Seq)
			if i < last {
				overtaken = true
			}
			last = i
		}
	}
	if !overtaken {
		t.Error("reorder faults never overtook on any seed; the relaxation is not modeled")
	}
}

// TestDupDeliversLateSecondCopy pins duplication: with dup forced, every
// message arrives exactly twice, the second copy is late, and it travels in
// its own record (a delivered record is recycled by its receiver, so a
// shared one could arrive rewritten).
func TestDupDeliversLateSecondCopy(t *testing.T) {
	e := sim.NewEngine(0, 0)
	net := interconnect.NewNetwork(e, 2, 0, nil, true)
	inj := NewInjector(e, net, 7, Rates{Dup: 1, MaxDelay: 8})
	s := &sink{engine: e}
	inj.Attach(1, s)
	inj.Send(0, 1, resp(0))
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 2 {
		t.Fatalf("deliveries = %v, want original + duplicate", s.got)
	}
	if s.got[1].at <= s.got[0].at {
		t.Errorf("duplicate not late: %v", s.got)
	}
	orig, dup := s.got[0].msg.(*cache.Msg), s.got[1].msg.(*cache.Msg)
	if orig == dup || *orig != *dup {
		t.Errorf("duplicate shares the original's record or differs from it: %p %+v, %p %+v", orig, *orig, dup, *dup)
	}
	if inj.Counts()["dup"] != 1 {
		t.Errorf("counts = %v", inj.Counts())
	}
}

// TestDropHitsOnlyRequests pins the fault model's class restriction: with
// drop forced, request-class messages vanish but responses (which have no
// end-to-end recovery path) are always delivered.
func TestDropHitsOnlyRequests(t *testing.T) {
	e := sim.NewEngine(0, 0)
	net := interconnect.NewNetwork(e, 2, 0, nil, true)
	inj := NewInjector(e, net, 7, Rates{Drop: 1})
	s := &sink{engine: e}
	inj.Attach(1, s)
	inj.Send(0, 1, req(0))  // GetS: droppable
	inj.Send(0, 1, resp(1)) // Data: never dropped
	if err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 || s.got[0].msg.(*cache.Msg).Kind != cache.MsgData {
		t.Fatalf("deliveries = %v, want exactly the Data message", s.got)
	}
	if inj.Counts()["drop"] != 1 {
		t.Errorf("counts = %v", inj.Counts())
	}
}

// TestInjectionLogReplays pins the replay fingerprint: two injectors with the
// same (seed, rates) over the same send schedule produce byte-identical logs
// and tallies.
func TestInjectionLogReplays(t *testing.T) {
	campaign := func() (string, string) {
		e := sim.NewEngine(0, 0)
		net := interconnect.NewNetwork(e, 3, 0, nil, true)
		inj := NewInjector(e, net, 12345, DefaultRates())
		s := &sink{engine: e}
		inj.Attach(1, s)
		inj.Attach(2, s)
		for i := 0; i < 200; i++ {
			dst := interconnect.NodeID(1 + i%2)
			m := resp(i)
			if i%3 == 0 {
				m = req(i)
			}
			e.At(sim.Time(i), func() { inj.Send(0, dst, m) })
		}
		if err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		return inj.LogString(), inj.CountsString()
	}
	log1, counts1 := campaign()
	log2, counts2 := campaign()
	if log1 != log2 {
		t.Fatalf("injection logs diverged across replays:\n--- first ---\n%s--- second ---\n%s", log1, log2)
	}
	if counts1 != counts2 {
		t.Fatalf("counts diverged: %q vs %q", counts1, counts2)
	}
	if log1 == "" {
		t.Fatal("default rates injected nothing over 200 messages")
	}
	for _, line := range strings.Split(strings.TrimRight(log1, "\n"), "\n") {
		if !strings.HasPrefix(line, "@") {
			t.Fatalf("malformed log line %q", line)
		}
	}
}

// TestParseRates covers the -fault-rates syntax: defaults, overrides, and
// every rejection path.
func TestParseRates(t *testing.T) {
	valid := []struct {
		in   string
		want Rates
	}{
		{"", DefaultRates()},
		{"  ", DefaultRates()},
		{"drop=0", Rates{Drop: 0, Dup: 0.04, Delay: 0.06, Reorder: 0.02, MaxDelay: 16}},
		{"drop=0.5,dup=0.25", Rates{Drop: 0.5, Dup: 0.25, Delay: 0.06, Reorder: 0.02, MaxDelay: 16}},
		{"delay=1, reorder=0.125, maxdelay=4", Rates{Drop: 0.03, Dup: 0.04, Delay: 1, Reorder: 0.125, MaxDelay: 4}},
	}
	for _, c := range valid {
		got, err := ParseRates(c.in)
		if err != nil {
			t.Errorf("ParseRates(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRates(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	invalid := []struct {
		in   string
		want string
	}{
		{"drop", "want key=value"},
		{"drop=2", "bad probability"},
		{"drop=-0.1", "bad probability"},
		{"dup=nope", "bad probability"},
		{"maxdelay=0", "bad maxdelay"},
		{"maxdelay=x", "bad maxdelay"},
		{"jam=0.5", "unknown rate key"},
	}
	for _, c := range invalid {
		if _, err := ParseRates(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseRates(%q) error = %v, want substring %q", c.in, err, c.want)
		}
	}
}

// TestRatesStringRoundTrips pins that the String rendering parses back to the
// same rates — the format wosim echoes in its injection summary.
func TestRatesStringRoundTrips(t *testing.T) {
	r := Rates{Drop: 0.125, Dup: 0.0625, Delay: 0.25, Reorder: 0.5, MaxDelay: 9}
	got, err := ParseRates(r.String())
	if err != nil {
		t.Fatalf("ParseRates(%q): %v", r.String(), err)
	}
	if got != r {
		t.Fatalf("round trip: %+v -> %q -> %+v", r, r.String(), got)
	}
}
