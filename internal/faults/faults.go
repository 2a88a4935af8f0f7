// Package faults wraps an interconnect.Fabric with deterministic, seeded
// fault injection: request drops, message duplication, FIFO-preserving extra
// delay, and bounded reordering. It exists to test the directory protocol's
// recovery machinery (retries, idempotent acknowledgement handling, the
// transaction watchdog) against an adversarial fabric while keeping every run
// exactly reproducible from (seed, rates).
//
// Fault model (see DESIGN.md "Fault model" for the full argument):
//
//   - Drops hit only the request class (GetS/GetX/UpdateReq). Requests are
//     the one message class with an end-to-end recovery path: the requester
//     holds an MSHR and retransmits on timeout. Response, invalidation, and
//     completion messages are delivered reliably (possibly late, duplicated,
//     or out of order), as on a real fabric with link-level retransmission.
//   - Duplication, extra delay, and reordering apply to every class.
//   - Extra delay preserves per-(src,dst) order: a delayed message holds a
//     gate that later messages on the same link queue behind, modelling a
//     slow link rather than a misrouted one.
//   - Reordering is delay without the gate — a message overtaken by later
//     traffic on its own link, bounded by MaxDelay cycles, modelling
//     adaptive routing.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"weakorder/internal/cache"
	"weakorder/internal/interconnect"
	"weakorder/internal/sim"
)

// Rates configures per-class fault probabilities. All probabilities are in
// [0,1]; the zero value injects nothing.
type Rates struct {
	// Drop is the probability a request-class message (GetS/GetX/UpdateReq)
	// is silently discarded. Other classes are never dropped (they have no
	// end-to-end recovery path; see the package comment).
	Drop float64
	// Dup is the probability any message is delivered twice; the duplicate
	// arrives 1..MaxDelay cycles late, exercising stale-duplicate handling.
	Dup float64
	// Delay is the probability a message is held 1..MaxDelay extra cycles
	// with per-(src,dst) order preserved.
	Delay float64
	// Reorder is the probability a message is held 1..MaxDelay extra cycles
	// without the ordering gate, letting same-link successors overtake it.
	Reorder float64
	// MaxDelay bounds the extra delay drawn for Dup/Delay/Reorder faults
	// (default 16 when any of those rates is positive).
	MaxDelay sim.Time
}

// DefaultRates returns the documented chaos-campaign default rates.
func DefaultRates() Rates {
	return Rates{Drop: 0.03, Dup: 0.04, Delay: 0.06, Reorder: 0.02, MaxDelay: 16}
}

// Zero reports whether the rates inject nothing.
func (r Rates) Zero() bool {
	return r.Drop <= 0 && r.Dup <= 0 && r.Delay <= 0 && r.Reorder <= 0
}

// String renders the rates in the -fault-rates flag syntax.
func (r Rates) String() string {
	return fmt.Sprintf("drop=%g,dup=%g,delay=%g,reorder=%g,maxdelay=%d",
		r.Drop, r.Dup, r.Delay, r.Reorder, r.MaxDelay)
}

// ParseRates parses the -fault-rates syntax: comma-separated key=value pairs
// with keys drop, dup, delay, reorder (probabilities) and maxdelay (cycles).
// Omitted keys default to DefaultRates' values; an empty string is the full
// default set.
func ParseRates(s string) (Rates, error) {
	r := DefaultRates()
	if strings.TrimSpace(s) == "" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return r, fmt.Errorf("faults: bad rate %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		if key == "maxdelay" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return r, fmt.Errorf("faults: bad maxdelay %q (want positive integer)", val)
			}
			r.MaxDelay = sim.Time(n)
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return r, fmt.Errorf("faults: bad probability %q for %s (want 0..1)", val, key)
		}
		switch key {
		case "drop":
			r.Drop = p
		case "dup":
			r.Dup = p
		case "delay":
			r.Delay = p
		case "reorder":
			r.Reorder = p
		default:
			return r, fmt.Errorf("faults: unknown rate key %q (want drop/dup/delay/reorder/maxdelay)", key)
		}
	}
	if r.MaxDelay < 1 {
		r.MaxDelay = 16
	}
	return r, nil
}

// FaultKind enumerates injected faults.
type FaultKind uint8

const (
	// FaultDrop discarded a request.
	FaultDrop FaultKind = iota
	// FaultDup delivered a late duplicate.
	FaultDup
	// FaultDelay held a message with per-link order preserved.
	FaultDelay
	// FaultReorder held a message while same-link successors passed it.
	FaultReorder
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultDelay:
		return "delay"
	case FaultReorder:
		return "reorder"
	default:
		return "fault?"
	}
}

// Injection records one injected fault, in injection order.
type Injection struct {
	Cycle    sim.Time
	Kind     FaultKind
	Src, Dst interconnect.NodeID
	Msg      cache.Msg
	// Extra is the added delay in cycles (Dup/Delay/Reorder).
	Extra sim.Time
}

// String renders one log line; the chaos harness compares these byte for byte
// across replays.
func (i Injection) String() string {
	return fmt.Sprintf("@%d %s %d->%d %s x%d v=%d seq=%d epoch=%d +%d",
		i.Cycle, i.Kind, i.Src, i.Dst, i.Msg.Kind, i.Msg.Addr, i.Msg.Value,
		i.Msg.Seq, i.Msg.Epoch, i.Extra)
}

// Injector is a fault-injecting Fabric wrapper. With all rates zero it is a
// pure pass-through: every Send goes inline to the wrapped fabric with no
// extra events, no RNG draws, and no log entries, so a zero-rate run is
// byte-identical to one on the bare fabric.
type Injector struct {
	inner  interconnect.Fabric
	engine *sim.Engine
	rng    *rand.Rand
	rates  Rates
	seed   int64
	// gate is the per-(src,dst) release floor maintained by Delay faults:
	// later sends on a gated link are deferred behind the held message so
	// delay faults never violate per-link order.
	gate map[[2]interconnect.NodeID]sim.Time
	log  []Injection
	// counts tallies injected faults by kind.
	counts [4]uint64
}

// NewInjector wraps fabric with seeded fault injection on engine.
func NewInjector(engine *sim.Engine, fabric interconnect.Fabric, seed int64, rates Rates) *Injector {
	if rates.MaxDelay < 1 {
		rates.MaxDelay = 16
	}
	return &Injector{
		inner:  fabric,
		engine: engine,
		rng:    rand.New(rand.NewSource(seed)),
		rates:  rates,
		seed:   seed,
		gate:   make(map[[2]interconnect.NodeID]sim.Time),
	}
}

// Attach implements interconnect.Fabric.
func (f *Injector) Attach(id interconnect.NodeID, e interconnect.Endpoint) { f.inner.Attach(id, e) }

// Messages implements interconnect.Fabric: messages that reached the wrapped
// fabric (dropped ones never do; duplicates count twice).
func (f *Injector) Messages() uint64 { return f.inner.Messages() }

// Log returns the injection log in injection order.
func (f *Injector) Log() []Injection { return f.log }

// LogString renders the whole injection log, one line per fault — the replay
// fingerprint the chaos harness compares byte for byte.
func (f *Injector) LogString() string {
	var b strings.Builder
	for _, inj := range f.log {
		b.WriteString(inj.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Counts returns fault tallies by kind name.
func (f *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, 4)
	for k, n := range f.counts {
		if n > 0 {
			out[FaultKind(k).String()] = n
		}
	}
	return out
}

// CountsString renders the tallies deterministically (sorted by kind name).
func (f *Injector) CountsString() string {
	m := f.Counts()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// isRequest reports whether the message is request-class (the only droppable
// class; see the package comment).
func isRequest(m interconnect.Message) (cache.Msg, bool) {
	r, ok := m.(*cache.Msg)
	if !ok || r == nil {
		return cache.Msg{}, false
	}
	switch r.Kind {
	case cache.MsgGetS, cache.MsgGetX, cache.MsgUpdateReq:
		return *r, true
	}
	return *r, false
}

// duplicate returns an independent copy of m for a second delivery: a
// protocol message record belongs to the one delivery that consumes it (see
// cache.MsgPool), so the duplicate must not share it.
func duplicate(m interconnect.Message) interconnect.Message {
	if r, ok := m.(*cache.Msg); ok && r != nil {
		d := *r
		return &d
	}
	return m
}

func (f *Injector) record(kind FaultKind, src, dst interconnect.NodeID, msg cache.Msg, extra sim.Time) {
	f.counts[kind]++
	f.log = append(f.log, Injection{
		Cycle: f.engine.Now(), Kind: kind, Src: src, Dst: dst, Msg: msg, Extra: extra,
	})
}

// Send implements interconnect.Fabric.
func (f *Injector) Send(src, dst interconnect.NodeID, m interconnect.Message) {
	if f.rates.Zero() {
		f.inner.Send(src, dst, m)
		return
	}
	msg, isReq := isRequest(m)
	now := f.engine.Now()
	link := [2]interconnect.NodeID{src, dst}

	if isReq && f.rng.Float64() < f.rates.Drop {
		f.record(FaultDrop, src, dst, msg, 0)
		return
	}
	if f.rng.Float64() < f.rates.Dup {
		// The duplicate is a spurious artifact: it arrives late and ignores
		// link order, exercising stale-duplicate suppression downstream.
		extra := 1 + sim.Time(f.rng.Int63n(int64(f.rates.MaxDelay)))
		f.record(FaultDup, src, dst, msg, extra)
		dup := duplicate(m)
		f.engine.After(extra, func() { f.inner.Send(src, dst, dup) })
	}

	// One delay decision per message: order-preserving (Delay) first, then
	// order-violating (Reorder).
	var handoff sim.Time // absolute time of the deferred inner.Send; 0 = inline
	if f.rng.Float64() < f.rates.Delay {
		extra := 1 + sim.Time(f.rng.Int63n(int64(f.rates.MaxDelay)))
		handoff = now + extra
		if g := f.gate[link]; handoff < g {
			handoff = g
		}
		f.gate[link] = handoff
		f.record(FaultDelay, src, dst, msg, handoff-now)
	} else if f.rng.Float64() < f.rates.Reorder {
		extra := 1 + sim.Time(f.rng.Int63n(int64(f.rates.MaxDelay)))
		handoff = now + extra
		f.record(FaultReorder, src, dst, msg, extra)
	} else if g := f.gate[link]; g > now {
		// The link is gated by an earlier Delay fault: queue behind it so
		// delay faults never reorder a link. (Handoffs at the same cycle
		// run in schedule order, preserving the original send order.)
		handoff = g
	}

	if handoff > 0 {
		f.engine.At(handoff, func() { f.inner.Send(src, dst, m) })
		return
	}
	f.inner.Send(src, dst, m)
}
