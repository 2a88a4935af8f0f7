// Package cache implements the timed directory-based write-back invalidation
// protocol of Section 5.2, including the Section-5.3 weak-ordering machinery:
// the commit vs globally-performed distinction, per-processor outstanding
// counters, per-line reserve bits, and the stalling of remote synchronization
// requests at a reserving owner.
//
// Protocol summary (line size = one word, infinite capacity, full-map
// directory):
//
//	cache --GetS--> dir                      read miss
//	cache --GetX--> dir                      write/sync miss or upgrade
//	dir --Data--> cache                      line (possibly still awaiting acks)
//	dir --Inv--> sharers; sharer --InvAck--> dir
//	dir --WriteAck--> cache                  all invalidations acknowledged
//	dir --FwdS/FwdX--> owner                 route request to exclusive owner
//	owner --Data--> requester (direct)       cache-to-cache transfer
//	owner --Downgrade/Transfer--> dir        close the forwarded transaction
//
// As the paper's protocol allows, on a write miss to a shared line the
// directory forwards the line to the requester in parallel with sending
// invalidations; the requester's write then *commits* on Data arrival and is
// *globally performed* on WriteAck.
package cache

import (
	"weakorder/internal/interconnect"
	"weakorder/internal/mem"
)

// MsgKind enumerates protocol messages.
type MsgKind uint8

const (
	// MsgGetS requests a shared copy (read miss).
	MsgGetS MsgKind = iota
	// MsgGetX requests an exclusive copy (write or synchronization miss).
	MsgGetX
	// MsgData delivers the line to a requester.
	MsgData
	// MsgWriteAck tells the requester all invalidations were acknowledged
	// (the write is globally performed).
	MsgWriteAck
	// MsgInv tells a sharer to invalidate its copy.
	MsgInv
	// MsgInvAck acknowledges an invalidation to the directory.
	MsgInvAck
	// MsgFwdS asks the exclusive owner to supply a shared copy to Requester
	// and downgrade.
	MsgFwdS
	// MsgFwdX asks the exclusive owner to transfer the line to Requester
	// and invalidate.
	MsgFwdX
	// MsgDowngrade returns ownership (with the current value) to the
	// directory after a FwdS.
	MsgDowngrade
	// MsgTransfer confirms an ownership hand-off to the directory after a
	// FwdX.
	MsgTransfer
	// MsgUpdateReq (cache→dir) carries a data write's value in the
	// write-update protocol variant: the directory updates memory and
	// multicasts MsgUpdate to the other sharers instead of invalidating.
	MsgUpdateReq
	// MsgUpdate (dir→sharer) delivers the new value of a line.
	MsgUpdate
	// MsgUpdateAck (sharer→dir) acknowledges an update.
	MsgUpdateAck
	// MsgNack (dir→cache) rejects a request the directory cannot queue (its
	// bounded per-line queue is full); the requester backs off and retries.
	MsgNack
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	names := [...]string{"GetS", "GetX", "Data", "WriteAck", "Inv", "InvAck",
		"FwdS", "FwdX", "Downgrade", "Transfer", "UpdateReq", "Update", "UpdateAck", "Nack"}
	if int(k) < len(names) {
		return names[k]
	}
	return "Msg?"
}

// Msg is a protocol message. Which fields are meaningful depends on Kind.
//
// On the fabric a message travels as a *Msg record drawn from its machine's
// MsgPool, so a send does not box a value into an interface. The receiving
// endpoint copies the message out and returns the record in Deliver;
// protocol state (queued requests, parked forwards, retransmission copies,
// error reports) only ever holds Msg values.
type Msg struct {
	Kind  MsgKind
	Addr  mem.Addr
	Value mem.Value
	// Requester is carried by FwdS/FwdX: the cache the owner must supply.
	Requester interconnect.NodeID
	// Sync marks a request originating from a synchronization operation;
	// reserve-bit stalling applies only to these (Section 5.3).
	Sync bool
	// Excl marks Data granting exclusive (dirty) rights.
	Excl bool
	// Performed marks Data whose transaction is already globally performed
	// (no invalidation acknowledgements outstanding).
	Performed bool
	// Seq is the requester's per-cache transaction number. Requests carry
	// it; Data/WriteAck/Nack echo it so the requester can discard stale or
	// duplicated responses after a retry. FwdS/FwdX relay the requester's
	// Seq so the owner's cache-to-cache Data echoes it too.
	Seq uint64
	// Epoch is the directory's per-line transaction number, stamped on
	// every message the directory emits for a transaction (Data, Inv,
	// Update, FwdS, FwdX) and echoed on the messages that close it (InvAck,
	// UpdateAck, Downgrade, Transfer). It makes duplicated or delayed
	// acknowledgements and forwards self-describing: anything tagged with a
	// closed epoch is a fabric artifact, not a protocol event.
	Epoch uint64
}

// MsgPool recycles the message records of one machine: every cache and
// directory shard composed into the machine sends from, and returns
// delivered records to, the same pool. A record is owned by exactly one
// in-flight delivery from Send until the receiver's Deliver takes it, so
// anything that needs a second delivery of the same message (the fault
// injector's duplicates) sends a copy. The pool is not safe for concurrent
// use; machines run concurrently each own one. The zero value is ready.
type MsgPool struct {
	free []*Msg
}

// send stamps m into a record and hands it to the fabric.
func (p *MsgPool) send(f interconnect.Fabric, src, dst interconnect.NodeID, m Msg) {
	var r *Msg
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		r = new(Msg)
	}
	*r = m
	f.Send(src, dst, r)
}

// take copies a delivered message out of its record and recycles the
// record. ok is false for anything that is not a protocol message.
func (p *MsgPool) take(m interconnect.Message) (Msg, bool) {
	r, ok := m.(*Msg)
	if !ok || r == nil {
		return Msg{}, false
	}
	msg := *r
	p.free = append(p.free, r)
	return msg, true
}
