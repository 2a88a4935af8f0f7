// Package interconnect provides the timed message fabrics of the
// discrete-event machine: a split-transaction shared bus (fully serialized,
// delivery in request order) and a general point-to-point network
// (per-message latency with deterministic jitter, no cross-link ordering) —
// the two interconnect styles Figure 1 distinguishes.
package interconnect

import (
	"fmt"
	"math/rand"

	"weakorder/internal/sim"
)

// NodeID addresses an endpoint on the fabric. By convention the machine
// assigns 0..N-1 to processor caches and N to the directory/memory
// controller.
type NodeID int

// Message is an opaque payload delivered to an endpoint. The cache package
// defines the concrete protocol messages.
type Message interface{}

// Endpoint receives messages from the fabric.
type Endpoint interface {
	Deliver(src NodeID, msg Message)
}

// Fabric is the common interface of the bus and the network.
type Fabric interface {
	// Attach registers an endpoint. All endpoints must be attached before
	// the first Send.
	Attach(id NodeID, e Endpoint)
	// Send schedules delivery of msg from src to dst.
	Send(src, dst NodeID, msg Message)
	// Messages returns the number of messages sent so far.
	Messages() uint64
}

// sinkEP adapts an Endpoint to sim.Sink so deliveries can be scheduled by
// value (no closure per message). One adapter is allocated per Attach.
type sinkEP struct {
	ep Endpoint
}

func (s *sinkEP) DeliverEvent(src int, msg any) { s.ep.Deliver(NodeID(src), msg) }

// endpoints is a fabric's attachment table, indexed by NodeID. Node IDs are
// dense (the machine numbers caches 0..N-1 and directory shards from N) and
// every endpoint is attached before the first send, so a send resolves its
// destination with one bounds-checked index, not a map lookup.
type endpoints []*sinkEP

func (t *endpoints) attach(id NodeID, e Endpoint) {
	for int(id) >= len(*t) {
		*t = append(*t, nil)
	}
	(*t)[id] = &sinkEP{ep: e}
}

func (t endpoints) sink(dst NodeID) *sinkEP {
	if dst < 0 || int(dst) >= len(t) || t[dst] == nil {
		panic(fmt.Sprintf("interconnect: send to unattached node %d", dst))
	}
	return t[dst]
}

// Network is a general interconnection network: each message takes
// Latency ± jitter cycles, independently, so two messages on different
// source/destination pairs (and even on the same pair, if jitter differs) may
// be delivered out of their send order — exactly the relaxation of Figure 1's
// configurations 2 and 4.
type Network struct {
	engine  *sim.Engine
	sinks   endpoints
	topo    *Topology
	latency sim.Time
	jitter  int
	rng     *rand.Rand
	sent    uint64
	// keepFIFO, when set, preserves per-(src,dst) send order even with
	// jitter (virtual-channel FIFOs); an ablation knob.
	keepFIFO bool
	// lastArr[dst][src] is the latest arrival time scheduled on the link
	// (zero before its first message). Rows grow to the largest source seen.
	lastArr [][]sim.Time
}

// NewNetwork builds a network fabric. latency is the base hop cost; jitter,
// when positive, adds a uniformly random 0..jitter-1 extra cycles per message
// drawn from rng (pass a seeded rng for reproducibility). fifo preserves
// per-link ordering.
func NewNetwork(engine *sim.Engine, latency sim.Time, jitter int, rng *rand.Rand, fifo bool) *Network {
	if latency < 1 {
		latency = 1
	}
	return &Network{
		engine:   engine,
		latency:  latency,
		jitter:   jitter,
		rng:      rng,
		keepFIFO: fifo,
	}
}

// SetTopology routes subsequent sends through topo: the base hop cost becomes
// a function of (src, dst) instead of the flat constant. A flat topology with
// Local equal to the constructor latency is behaviorally identical to no
// topology at all. Must be called before the first Send.
func (n *Network) SetTopology(topo *Topology) { n.topo = topo }

// Attach implements Fabric.
func (n *Network) Attach(id NodeID, e Endpoint) {
	n.sinks.attach(id, e)
	for len(n.lastArr) < len(n.sinks) {
		n.lastArr = append(n.lastArr, nil)
	}
}

// Send implements Fabric.
func (n *Network) Send(src, dst NodeID, msg Message) {
	sink := n.sinks.sink(dst)
	n.sent++
	d := n.latency
	if n.topo != nil {
		d = n.topo.Latency(src, dst)
	}
	// The jitter draw happens on every send, topology or not, so routing
	// changes never shift the RNG stream of unrelated messages.
	if n.jitter > 0 && n.rng != nil {
		d += sim.Time(n.rng.Intn(n.jitter))
	}
	at := n.engine.Now() + d
	if n.keepFIFO {
		row := n.lastArr[dst]
		if int(src) >= len(row) {
			row = append(row, make([]sim.Time, int(src)+1-len(row))...)
			n.lastArr[dst] = row
		}
		if last := row[src]; at <= last {
			at = last + 1
		}
		row[src] = at
	}
	n.engine.DeliverAt(at, sink, int(src), msg)
}

// Messages implements Fabric.
func (n *Network) Messages() uint64 { return n.sent }

// Bus is a shared split-transaction bus: one message occupies the bus for
// Cycle cycles and messages are delivered strictly in request order — the
// fully serialized fabric of Figure 1's configurations 1 and 3.
type Bus struct {
	engine *sim.Engine
	sinks  endpoints
	cycle  sim.Time
	free   sim.Time // earliest time the bus is available
	sent   uint64
}

// NewBus builds a bus fabric; cycle is the per-message occupancy.
func NewBus(engine *sim.Engine, cycle sim.Time) *Bus {
	if cycle < 1 {
		cycle = 1
	}
	return &Bus{engine: engine, cycle: cycle}
}

// Attach implements Fabric.
func (b *Bus) Attach(id NodeID, e Endpoint) { b.sinks.attach(id, e) }

// Send implements Fabric.
func (b *Bus) Send(src, dst NodeID, msg Message) {
	sink := b.sinks.sink(dst)
	b.sent++
	start := b.engine.Now()
	if b.free > start {
		start = b.free
	}
	arrival := start + b.cycle
	b.free = arrival
	b.engine.DeliverAt(arrival, sink, int(src), msg)
}

// Messages implements Fabric.
func (b *Bus) Messages() uint64 { return b.sent }
