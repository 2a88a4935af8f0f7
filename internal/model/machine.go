// Package model implements operational (small-step, nondeterministic) models
// of the memory systems discussed in the paper, together with an exhaustive
// state-space explorer. The machines are:
//
//   - SC: the idealized architecture — every access executes atomically in
//     program order (the reference for Definition 2 and the enumerator of
//     idealized executions for Definition 3).
//   - Relaxed: the store-buffer machines of the relaxation ladder TSO, PSO
//     and RMO. Figure 1's bus-based systems, where reads may pass buffered
//     writes (configurations 1 and 3), are its TSO instance under their own
//     names (NewWriteBuffer). Its network mode (NewNetwork) is the
//     general-interconnection-network system without caches, where accesses
//     issue in program order but reach memory modules out of order (Figure 1,
//     configuration 2): PSO's per-address buffer, in which reads queue too.
//   - NonAtomic: a cache-based system with a general network where a write
//     updates the writer's copy immediately and propagates to other
//     processors' copies asynchronously (Figure 1, configuration 4), and
//     synchronization orders nothing.
//   - WODef1: weak ordering per Dubois/Scheurich/Briggs' Definition 1 — a
//     processor stalls its own synchronization operation until all its
//     previous accesses are globally performed.
//   - WODef2: the paper's Section-5 implementation — synchronization commits
//     immediately and *reserves* its location; a subsequent synchronizer on
//     the same location (from another processor) stalls until the reserver's
//     outstanding accesses are globally performed.
//   - WODef2DRF1: WODef2 with the Section-6 refinement — read-only
//     synchronization operations are not serialized and set no reservation.
//
// NonAtomic and the WODef machines are modes of one type, WeakOrdered, over
// per-processor copies of memory.
//
// Every machine can be copied (CloneInto), so the explorer can branch on each
// enabled step and deduplicate states by canonical key, and every step a
// machine enumerates carries the Info the partial-order reduction reads. Every
// machine also has a behaviour identity (Behavior), separate from its display
// name, so a caller can explore each distinct transition system once.
package model

import (
	"weakorder/internal/digest"
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// The kinds of a machine's steps (explore.Step.Kind). A step's Proc is the
// acting processor; its Aux disambiguates steps of one kind and processor,
// with a machine-specific meaning (a drained address, a message's sequence
// number, an RMO read's version offset).
const (
	// TExec executes the next memory operation of a thread (possibly only
	// partially, e.g. enqueueing a write into a buffer).
	TExec uint8 = iota
	// TDrain retires the oldest entry of a processor's buffer, or of its
	// entries for one address: a write into memory, or a network read from
	// it.
	TDrain
	// TDeliver delivers one write propagation to one destination
	// processor's copy.
	TDeliver
)

// KeyMode selects how much history a machine folds into its canonical state
// key, trading exploration speed for what the deduplicated outcomes preserve.
type KeyMode uint8

const (
	// KeyState keys on machine state only (threads, memory, buffers). Sound
	// for enumerating final states (litmus conditions), since the future of
	// a machine depends only on its state.
	KeyState KeyMode = iota
	// KeyResult additionally keys on the values returned by all past reads,
	// so deduplication preserves the paper's Result (all read values plus
	// final memory).
	KeyResult
	// KeyExecution additionally keys on the completion order of
	// synchronization operations, so deduplication preserves the
	// happens-before relation and hence the set of data races. Only
	// meaningful on the SC machine, whose traces are idealized executions.
	KeyExecution
)

// keyFull is the KeyMode bit that Explorer adds under FullKeys. It asks the
// machine for the fully rendered key: every recorded read and sync listed
// and every register of every thread, where the default key holds one digest
// per history chain and only the registers the program writes. The two
// forms tell the same states apart; the full form is collision-free by
// construction, so it stays the oracle of the digest form.
const keyFull KeyMode = 1 << 7

// Machine is an operational memory-system model under exploration.
type Machine interface {
	// Name identifies the model in reports and tables. It is for display
	// only: no transition, state key or step info reads it; only error text
	// does.
	Name() string
	// Behavior returns the machine's behaviour identity.
	Behavior() Behavior
	// CloneInto returns an independent copy written into dst's storage. dst
	// is nil or a machine that nothing references any longer; the copy may
	// overwrite everything dst owns. A dst of another kind is not reused.
	// Its cost does not grow with the recorded history, which the copy
	// shares (see histNode).
	CloneInto(dst Machine) Machine
	// Transitions appends the currently enabled steps to buf,
	// deterministically ordered, and returns it. Each step carries its Info
	// for partial-order reduction: the agent it acts for and the single
	// memory access it performs, read from the request or message the
	// machine enumerates it from. Agents partition a machine's steps so that
	// a disabled step of agent a can only be enabled by a step of a itself
	// or of an agent whose footprint conflicts with a's wake footprint (the
	// kernel's frozen-gate contract).
	Transitions(buf []explore.Step) []explore.Step
	// Apply performs one enabled step; only its identity (Kind, Proc, Aux)
	// is read.
	Apply(t explore.Step) error
	// Done reports whether all threads halted and all internal buffers and
	// in-flight messages drained.
	Done() bool
	// AppendKey appends a canonical binary encoding of the state for
	// deduplication to key and returns the extended slice. The encoding is
	// prefix-free for a fixed program, so two distinct states encode to the
	// same bytes only if two of their history chains' 128-bit digests
	// collide; with the keyFull bit, which lists the chains, never. The
	// explorer hashes it rather than storing it.
	AppendKey(mode KeyMode, key []byte) []byte
	// Final returns the final state (registers and memory); meaningful once
	// Done.
	Final() *program.FinalState
	// AppendResultKey appends the key of the machine's Result — the paper's
	// Result, all read values plus final memory — to b: the bytes
	// mem.Result.Key renders, straight from the machine's state. An outcome
	// set holds these keys; mem.ParseResultKey decodes one.
	AppendResultKey(b []byte) []byte
	// Trace returns the recorded execution so far: accesses in completion
	// (commit) order. For the SC machine this is an idealized execution.
	// Every call builds a fresh copy from the machine's shared history, so
	// the caller owns the result; hot paths use TraceLen instead.
	Trace() *mem.Execution
	// TraceLen returns the number of recorded accesses, Trace().Len(),
	// without building the execution.
	TraceLen() int
	// Footprints appends one entry per agent: an over-approximation of every
	// access the agent may still perform (static program suffix plus dynamic
	// machine state such as buffered writes or in-flight messages), and the
	// wake footprint through which other agents can unfreeze its currently
	// disabled steps.
	Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints
}

// Behavior is a machine's behaviour identity: a comparable value, equal for
// two machines built over one program exactly when they run the same
// transition system — the same states, keys, steps, step infos and
// footprints — whatever their display names. It is the machine's kind plus
// the parameters that change its transitions: the Relaxed or WeakOrdered
// mode, and a delay set, which is compared by identity, so a machine built
// with one shares its identity with no other. Machines sharing an identity
// have one outcome set on every program, one class of the weakness preorder,
// so one exploration answers for all of them.
type Behavior struct {
	kind   machineKind
	mode   uint8
	delays *delaySet
}

// machineKind names a machine type for Behavior.
type machineKind uint8

const (
	kindSC machineKind = iota
	kindRelaxed
	kindWeakOrdered
)

// base carries the thread interpreters and recording shared by all machines.
type base struct {
	name    string
	prog    *program.Program
	threads []program.Thread
	// univ is the program's static address universe: the dense slots of
	// every addrTable. regs holds, per thread, the registers its snapshot
	// renders: program.Code.LiveRegs, above which a register stays zero. Both
	// are shared by all clones, never written.
	univ *universe
	regs []int
	// hist is the newest completed access (nil before the first); the
	// execution history is the chain behind it, shared with every clone
	// taken on the way. reads holds, per processor, its newest read and the
	// digest of its read chain; syncSum digests the sync chain.
	hist    *histNode
	reads   []readChain
	syncSum digest.Sum
	// fp holds the immutable static footprints of the program, shared by all
	// clones (cloneBase copies the pointer).
	fp *progFootprints
}

func newBase(name string, p *program.Program) base {
	n := p.NumThreads()
	b := base{
		name:    name,
		prog:    p,
		threads: make([]program.Thread, n),
		univ:    newUniverse(p.Addrs()),
		regs:    make([]int, n),
		reads:   make([]readChain, n),
	}
	b.fp = computeFootprints(p, b.univ)
	for i, code := range p.Threads {
		b.threads[i] = program.NewThread(code)
		b.regs[i] = code.LiveRegs()
	}
	return b
}

// copyBase copies the per-thread state into d, reusing d's slices; the
// history nodes and everything static are shared. d's slices are taken before
// the struct copy, which would otherwise leave d sharing b's.
func (b *base) copyBase(d *base) {
	threads, reads := d.threads, d.reads
	*d = *b
	d.threads = append(threads[:0], b.threads...)
	d.reads = append(reads[:0], b.reads...)
}

// initialMemory returns the program's initial memory: every location of the
// static universe holds its Init value (zero when absent).
func (b *base) initialMemory() addrTable[mem.Value] {
	t := newAddrTable[mem.Value](b.univ)
	for i, a := range b.univ.addrs {
		t.dense[i] = b.prog.Init[a]
	}
	return t
}

// pending returns the published request of thread p, running local code.
func (b *base) pending(p int) (program.Request, bool, error) {
	return b.threads[p].Pending()
}

// resolve completes thread p's pending op, recording it at its current
// program-order index.
func (b *base) resolve(p int, req program.Request, readVal, writeVal mem.Value) {
	b.record(p, b.threads[p].OpIndex, req, readVal, writeVal)
	b.threads[p].Resolve(readVal)
}

func (b *base) threadsDone() bool {
	for i := range b.threads {
		// Pending also advances through local code; a thread stuck before
		// halt with no memory op counts as not done.
		if _, ok, err := b.threads[i].Pending(); err == nil && !ok && b.threads[i].Done() {
			continue
		}
		return false
	}
	return true
}

// Key returns the canonical state key of m as a string. Convenience for
// tests and debugging; hot paths call AppendKey with a reused buffer.
func Key(m Machine, mode KeyMode) string { return string(m.AppendKey(mode, nil)) }

// stableOrder returns the indices 0..n-1 stably sorted by less, built in idx
// (a caller's stack buffer, so keying a state allocates nothing). It is an
// insertion sort: the lists it orders hold a few dozen entries at most.
func stableOrder(idx []int32, n int, less func(a, b int32) bool) []int32 {
	idx = idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
		for j := len(idx) - 1; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// finalState assembles registers plus the supplied memory view.
func (b *base) finalState(memory *addrTable[mem.Value]) *program.FinalState {
	fs := &program.FinalState{Mem: make(map[mem.Addr]mem.Value, memory.len())}
	for i := range b.threads {
		fs.Regs = append(fs.Regs, b.threads[i].Regs)
	}
	for i := 0; i < memory.len(); i++ {
		a, v := memory.at(i)
		fs.Mem[a] = v
	}
	return fs
}

// appendResultKey appends the result key of the read chains and the memory
// table to key. A processor's reads complete in program
// order on every machine — each binds at issue, or blocks its issuer until
// it does — so each read chain, walked backwards, lists its reads in index
// order. The table lists its static slots, then its overflow, each in
// address order; the key lists their merge.
func (b *base) appendResultKey(key []byte, memory *addrTable[mem.Value]) []byte {
	var chain [64]*histNode
	for p := range b.reads {
		nodes := chain[:0]
		for rd := b.reads[p].last; rd != nil; rd = rd.prevRead {
			nodes = append(nodes, rd)
		}
		for i := len(nodes) - 1; i >= 0; i-- {
			key = mem.AppendKeyRead(key, mem.ReadKey{Proc: mem.ProcID(p), Index: int(nodes[i].opIndex)}, nodes[i].acc.Value)
		}
	}
	key = mem.AppendKeyMemory(key)
	extra := memory.extra
	for i, a := range memory.u.addrs {
		for len(extra) > 0 && extra[0].addr < a {
			key = mem.AppendKeyFinal(key, extra[0].addr, extra[0].v)
			extra = extra[1:]
		}
		key = mem.AppendKeyFinal(key, a, memory.dense[i])
	}
	for _, e := range extra {
		key = mem.AppendKeyFinal(key, e.addr, e.v)
	}
	return key
}

func (b *base) Name() string { return b.name }
