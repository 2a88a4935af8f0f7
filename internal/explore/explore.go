// Package explore is the single state-space exploration kernel behind every
// enumerator in the repository: the operational-model explorer
// (model.Explorer), the sequential-consistency replay search (core.SCCheck),
// and — through the model layer — the idealized-execution enumeration. A
// client implements the TransitionSystem interface (enabled steps, apply,
// canonical append-key, per-agent footprints) and the kernel provides the
// explicit-stack depth-first search, state deduplication, budgets, and
// conflict-driven partial-order reduction.
//
// # Partial-order reduction
//
// The reduction combines two classic techniques, both keyed on the paper's
// conflict predicate (Definition 3: two accesses conflict when they target
// the same location and at least one writes):
//
//   - Persistent sets (Godefroid) reduce the number of *states* visited. At
//     each state the kernel selects a subset of the enabled steps — all
//     enabled steps of an agent set A closed under two attraction rules —
//     such that anything agents outside A can ever do commutes with the
//     subset. Agent q is attracted into A when (1) q's future footprint
//     conflicts with the footprint of an A-agent's *currently enabled* steps
//     (q could eventually perform a step dependent on the chosen subset), or
//     (2) q's future footprint conflicts with an A-agent's *wake* footprint
//     (q could enable a currently frozen step of an A-agent, whose execution
//     would be same-agent-dependent on the subset). Exploring only the
//     subset still reaches every terminal state, so outcome sets are
//     preserved. Rule 2 is why the construction is sound without inspecting
//     disabled steps: the transition system declares, per agent, an
//     over-approximation of the accesses *by others* that can unfreeze any
//     of its currently disabled steps, and guarantees everything else about
//     a disabled step's enabledness depends on the agent itself (the
//     "frozen gate" contract).
//
//   - Sleep sets (Godefroid) reduce the number of *transitions* re-explored
//     between already-visited states: after fully exploring the subtree below
//     step t, commuting sibling steps carry t in their sleep set, pruning the
//     symmetric interleavings. Because deduplication matches states, a state
//     revisited with a smaller skip mask re-expands exactly the steps that
//     were skipped before but are expandable now, storing the intersection
//     (the sleep-set/state-matching algorithm of Godefroid's thesis, ch. 5).
//
// Independence is conservative: steps of the same agent never commute, two
// synchronization steps never commute (their global commit order is part of
// execution-level keys), a fence step never commutes with a write or another
// fence (its effect spans every location), and otherwise steps commute
// exactly when their declared single-access footprints do not conflict. A transition system must
// only declare footprints whose commutation is real at the level of canonical
// keys: if two steps are independent under Independent, applying them in
// either order from any state where both are enabled must produce
// key-identical states, and neither may disable the other. Steps that cannot
// promise this set Opaque and are excluded from all reduction. See DESIGN.md
// §"Exploration kernel" for the soundness argument and the per-machine
// footprint declarations.
//
// With FullExploration set, both reductions are disabled and the search
// degenerates to the plain exhaustive DFS over every enabled step.
package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"weakorder/internal/digest"
	"weakorder/internal/mem"
)

// Info is the reduction-relevant footprint of a step, declared by the
// transition system.
type Info struct {
	// Agent is the logical process the step acts for. Steps of the same
	// agent never commute. The agent need not be the processor named in the
	// step's identity: a write propagation in a cache-based machine is a step
	// of its *source* processor (whose outstanding-access counter it
	// decrements), delivered at a destination.
	Agent int
	// Addr and Op describe the step as one access in the paper's vocabulary;
	// they feed mem.Conflicts and the sync test.
	Addr mem.Addr
	Op   mem.Op
	// AddrBit is Addr under the system's dense footprint indexing (the same
	// indexing Footprint masks use); zero means the address has no dense bit
	// and the step's footprint degrades to Wild.
	AddrBit uint64
	// Opaque marks a step with an undeclarable footprint: it conflicts with
	// everything and never participates in reduction.
	Opaque bool
	// Fence marks a step whose effect additionally spans every location at
	// once — e.g. a full memory fence that snaps the issuing processor's view
	// of all write histories. A fence is dependent on every write and on every
	// other fence, regardless of address: committing a write before the fence
	// leaves the fencing processor permanently fresh on that location, while
	// committing it after leaves a stale view available. Steps that only read
	// (and other non-fence, non-write steps) still commute with a fence.
	Fence bool
}

// footprint views the step's single access as a Footprint.
func (i Info) footprint() Footprint {
	if i.Opaque {
		return Footprint{Opaque: true}
	}
	fp := Footprint{Sync: i.Op.IsSync(), Fence: i.Fence}
	if i.AddrBit == 0 {
		fp.Wild = true
		return fp
	}
	if i.Op.Reads() {
		fp.Reads = i.AddrBit
	}
	if i.Op.Writes() {
		fp.Writes = i.AddrBit
	}
	return fp
}

// Step is one enabled transition of a TransitionSystem: a system-private
// identity (Kind, Proc, Aux) that Apply interprets, plus the Info the reducer
// needs. The identity must be stable while the step stays enabled: if a step
// sits in a sleep set across the application of an independent step, the same
// (Kind, Proc, Aux) triple must still denote the same action afterwards.
type Step struct {
	Kind uint8
	Proc int
	Aux  int64
	Info
}

// String implements fmt.Stringer.
func (s Step) String() string {
	if s.Opaque {
		return fmt.Sprintf("step(%d,P%d,%d)", s.Kind, s.Proc, s.Aux)
	}
	return fmt.Sprintf("step(%d,P%d,%d:%s x%d)", s.Kind, s.Proc, s.Aux, s.Op, s.Addr)
}

// same reports identity (not footprint) equality.
func (s Step) same(o Step) bool { return s.Kind == o.Kind && s.Proc == o.Proc && s.Aux == o.Aux }

// Independent reports whether two enabled steps commute: they must act for
// different agents, neither may be opaque, and their accesses must not
// conflict in the paper's sense (same location, at least one write —
// mem.Conflicts). A fence step (Info.Fence) is additionally dependent on
// every write and every other fence whatever their addresses — its effect
// spans all locations. With visibleSyncOrder set, two synchronization steps
// never commute even on different locations: the global sync commit order is
// part of execution-level state keys (the sync log that orders
// happens-before), so swapping two syncs produces key-distinct states.
// Dependence is the conservative default.
func Independent(a, b Step, visibleSyncOrder bool) bool {
	if a.Opaque || b.Opaque || a.Agent == b.Agent {
		return false
	}
	if a.Fence && (b.Fence || b.Op.Writes()) || b.Fence && a.Op.Writes() {
		return false
	}
	if visibleSyncOrder && a.Op.IsSync() && b.Op.IsSync() {
		return false
	}
	return a.Addr != b.Addr || !mem.Conflicts(a.Op, b.Op)
}

// Footprint is a set of possible accesses: the locations that may be read or
// written (as bitmasks over a system-chosen dense address indexing), whether
// a synchronization or opaque step may occur, and whether statically unknown
// locations may be touched.
type Footprint struct {
	Reads  uint64 // locations that may be read (dense index bitmask)
	Writes uint64 // locations that may be written
	Wild   bool   // may access statically unknown locations (reads and writes)
	Sync   bool   // may include a synchronization step
	Opaque bool   // may include an opaque step
	Fence  bool   // may include a fence step (dependent on all writes and fences)
}

// AgentFootprints is what a transition system declares per agent for the
// persistent-set construction.
type AgentFootprints struct {
	// Future over-approximates every step the agent may still perform, from
	// the current state to the end of every execution.
	Future Footprint
	// Wake over-approximates the accesses OTHER agents can perform that may
	// enable a currently disabled step of this agent. By declaring it, the
	// system promises the complement — the "frozen gate" contract: a disabled
	// step of agent p becomes enabled only through steps of p itself or
	// through steps whose footprints conflict with p's Wake. Systems whose
	// enabling gates all depend on the agent's own state alone (the common
	// case) leave it zero. See DESIGN.md.
	Wake Footprint
}

// Conflicts reports whether a step drawn from one footprint may depend on a
// step drawn from the other; visibleSyncOrder mirrors Independent's flag.
func (f Footprint) Conflicts(g Footprint, visibleSyncOrder bool) bool {
	if f.Opaque || g.Opaque {
		return true
	}
	if f.Fence && (g.Fence || g.Wild || g.Writes != 0) || g.Fence && (f.Wild || f.Writes != 0) {
		return true
	}
	if visibleSyncOrder && f.Sync && g.Sync {
		return true
	}
	if f.Wild && (g.Wild || g.Reads|g.Writes != 0) {
		return true
	}
	if g.Wild && f.Reads|f.Writes != 0 {
		return true
	}
	return f.Writes&(g.Reads|g.Writes) != 0 || g.Writes&f.Reads != 0
}

// TransitionSystem is a nondeterministic system under exploration. All
// methods of one state are called from a single goroutine.
type TransitionSystem interface {
	// Name identifies the system in error messages.
	Name() string
	// Clone returns an independent deep copy. reuse is nil or a dead state of
	// the same run: one the kernel no longer references, which the copy may
	// overwrite. Systems that cannot use it ignore it.
	Clone(reuse TransitionSystem) TransitionSystem
	// Steps appends the currently enabled steps to buf and returns it; buf is
	// storage the kernel owns and reuses. The order must be canonical: two
	// states with equal keys must list position-aligned steps (same kinds,
	// agents, and footprints at each index), since the kernel stores
	// positional masks per visited state. The kernel calls Steps exactly once
	// per state, before AppendKey, so systems may use it to normalize lazy
	// state.
	Steps(buf []Step) []Step
	// Apply performs one enabled step.
	Apply(Step) error
	// Done reports whether a step-less state is a legitimate terminal state.
	Done() bool
	// AppendKey appends the canonical, prefix-free binary encoding of the
	// state to key and returns the extended slice.
	AppendKey(key []byte) []byte
	// Prune reports whether the current path should be cut short (counted in
	// Stats.Truncated); systems with unbounded executions bound them here.
	Prune() bool
	// Footprints appends one AgentFootprints per agent to buf and returns
	// it. Every enabled step's Agent must index into the result.
	Footprints(buf []AgentFootprints) []AgentFootprints
}

// DefaultMaxStates is the safety net applied when Explorer.MaxStates is 0.
const DefaultMaxStates = 2_000_000

// ErrStateBudget reports that exploration exceeded MaxStates. Run returns it
// wrapped with the system name; check with errors.Is.
var ErrStateBudget = errors.New("explore: state budget exhausted")

// StateBudgetError is the concrete error Run returns when exploration
// exceeds MaxStates. It satisfies errors.Is(err, ErrStateBudget) and carries
// the number of distinct states visited when the budget tripped, so callers
// can print an actionable retuning hint without rerunning under -metrics.
type StateBudgetError struct {
	System string // TransitionSystem.Name()
	States int    // distinct states visited when the budget was exhausted
}

// Error implements error.
func (e *StateBudgetError) Error() string {
	return fmt.Sprintf("explore: exploring %s: state budget exhausted after %d distinct states", e.System, e.States)
}

// Unwrap makes errors.Is(err, ErrStateBudget) hold.
func (e *StateBudgetError) Unwrap() error { return ErrStateBudget }

// Explorer configures the exploration kernel. The zero value explores with
// partial-order reduction, digest-deduplicated states, and the
// DefaultMaxStates budget.
type Explorer struct {
	// MaxStates bounds the number of distinct states visited (0 = the
	// DefaultMaxStates safety net). Exceeding it aborts with an error
	// satisfying errors.Is(err, ErrStateBudget).
	MaxStates int
	// FullExploration disables the partial-order reduction: every enabled
	// step of every state is expanded. The escape hatch for debugging and for
	// the differential tests that pin POR soundness.
	FullExploration bool
	// FullKeys deduplicates on the full canonical key encoding instead of
	// its 128-bit digest. The digest path is what production sweeps use; the
	// full-key path is collision-free by construction and exists as a debug
	// cross-check.
	FullKeys bool
	// VisibleSyncOrder declares that the relative completion order of
	// synchronization operations on *different* locations is part of the
	// state key (execution-level keys embedding the global sync log). It
	// makes all sync pairs mutually dependent; without it, same-location
	// conflicts alone order syncs. Clients whose keys record sync history
	// (model.KeyExecution) must set it.
	VisibleSyncOrder bool
	// AllowStuck treats step-less states that are not Done as ordinary dead
	// ends instead of deadlock errors. The SC replay search sets it: a
	// blocked replay (recorded read value unreachable) is an expected dead
	// end, not a modeling bug.
	AllowStuck bool
	// Workers selects the exploration width. 0 or 1 runs the classic serial
	// kernel. n > 1 runs exactly n workers sharing a work-stealing frontier
	// and a striped visited store (the extra n-1 slots are registered with
	// the process-wide par budget so nested sweeps shrink accordingly). A
	// negative value auto-sizes: the run claims as many spare slots as the
	// par budget has free, possibly none (serial). Every width yields the
	// same terminal-state set — see DESIGN.md §"Parallel exploration" — but
	// the order in which final() observes them, and Stats under reduction,
	// may vary run to run for widths above 1.
	Workers int
}

// Stats summarizes one exploration.
type Stats struct {
	States      int // distinct states visited
	Transitions int // steps applied
	Finals      int // distinct terminal states reached
	Truncated   int // paths pruned by TransitionSystem.Prune (0 means exhaustive)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	if s.Truncated > 0 {
		return fmt.Sprintf("%d states, %d transitions, %d final states, %d paths truncated",
			s.States, s.Transitions, s.Finals, s.Truncated)
	}
	return fmt.Sprintf("%d states, %d transitions, %d final states", s.States, s.Transitions, s.Finals)
}

// visitedSet stores, per visited state, the mask of steps NOT expanded from
// it (asleep or outside the persistent set) — either in a visitedTable keyed
// by the state key's fixed-seed 128-bit digest (default: constant memory per
// state) or in a map keyed by the full key bytes (FullKeys debug mode).
type visitedSet struct {
	table *visitedTable
	full  map[string]uint64
}

// newVisitedSet returns an empty store. Its table comes from the pool, and
// free returns it there.
func newVisitedSet(fullKeys bool) visitedSet {
	if fullKeys {
		return visitedSet{full: make(map[string]uint64)}
	}
	return visitedSet{table: tablePool.Get().(*visitedTable)}
}

// free hands the store's table back to the pool, emptied, unless it grew past
// maxPooledSlots. The store must not be used again.
func (v *visitedSet) free() {
	if t := v.table; t != nil && len(t.slots) <= maxPooledSlots {
		t.reset()
		tablePool.Put(t)
	}
	v.table = nil
}

// visit performs the visited-store transition of one entered state, given
// its key and the key's digest (which FullKeys mode does not read). A first
// visit asks reserve for a budget slot — reporting over when it refuses —
// stores skip, and returns todo = all&^skip with isNew set. A revisit returns
// the steps stored as skipped before but expandable now (old&^skip) and
// stores the intersection old&skip: masks only ever shrink, and every bit
// cleared from a stored mask is handed to exactly one visit.
func (v *visitedSet) visit(key []byte, sum digest.Sum, all, skip uint64, reserve func() bool) (todo uint64, isNew, over bool) {
	var old uint64
	var seen bool
	var slot *visitedSlot
	if v.full != nil {
		old, seen = v.full[string(key)]
	} else if slot, seen = v.table.find(sum); seen {
		old = slot.skip
	}
	switch {
	case !seen && !reserve():
		return 0, false, true
	case !seen:
		todo, isNew = all&^skip, true
		old = skip
	default:
		if todo = old &^ skip; todo == 0 {
			return 0, false, false
		}
		old &= skip
	}
	switch {
	case v.full != nil:
		v.full[string(key)] = old
	case seen:
		slot.skip = old
	default:
		v.table.insert(slot, sum, old)
	}
	return todo, isNew, false
}

func (v *visitedSet) len() int {
	if v.full != nil {
		return len(v.full)
	}
	return v.table.n
}

// visitedTable is the digest-keyed store: an open-addressed table probed
// linearly from the slot that the low bits of the digest's first word name.
// A digest is already uniform, so there is no second hash. A slot is
// occupied when it holds the table's generation, so reset empties the table
// by advancing the generation, without clearing or reallocating it; that is
// what lets one table serve exploration after exploration through the pool.
type visitedTable struct {
	slots []visitedSlot // a power of two
	gen   uint32        // the current generation, never 0
	n     int           // occupied slots
}

// visitedSlot is one stored state: its digest as two words, its skip mask,
// and the generation that stored it (0: never used).
type visitedSlot struct {
	lo, hi uint64
	skip   uint64
	gen    uint32
}

const (
	// minVisitedSlots is the size of a new table.
	minVisitedSlots = 32
	// maxPooledSlots bounds the tables the pool keeps (1 MiB of slots): the
	// table of a larger exploration is dropped when it ends, so a
	// multi-million-state run does not leave its table pinned.
	maxPooledSlots = 1 << 15
)

// tablePool hands visited tables from one exploration to the next: a serial
// run takes one, a parallel run one per stripe that receives a state, and
// both free them when Run returns.
var tablePool = sync.Pool{New: func() any {
	return &visitedTable{slots: make([]visitedSlot, minVisitedSlots), gen: 1}
}}

// words splits a digest into the two words a slot stores.
func words(sum digest.Sum) (lo, hi uint64) {
	return binary.LittleEndian.Uint64(sum[:8]), binary.LittleEndian.Uint64(sum[8:])
}

// find returns the slot holding sum and true, or the free slot where sum
// belongs and false.
func (t *visitedTable) find(sum digest.Sum) (*visitedSlot, bool) {
	lo, hi := words(sum)
	mask := uint64(len(t.slots) - 1)
	for i := lo & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return s, false
		}
		if s.lo == lo && s.hi == hi {
			return s, true
		}
	}
}

// insert stores sum with its skip mask in slot, the free slot find returned
// for it, first doubling the table if the store would fill it past three
// quarters.
func (t *visitedTable) insert(slot *visitedSlot, sum digest.Sum, skip uint64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
		slot, _ = t.find(sum)
	}
	lo, hi := words(sum)
	*slot = visitedSlot{lo: lo, hi: hi, skip: skip, gen: t.gen}
	t.n++
}

// grow doubles the table and moves the current generation's slots into it.
func (t *visitedTable) grow() {
	old := t.slots
	t.slots = make([]visitedSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := s.lo & mask
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// reset empties the table by advancing its generation. When the counter
// wraps, the slots are cleared once, so that no slot stored 2^32 resets
// before reads as occupied.
func (t *visitedTable) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// visitedStore is a run's visited store, the one part of a state's entry
// that differs by width: serialVisited for a serial run, stripedVisited for a
// parallel one. visit performs the transition of visitedSet.visit for the
// state with the given key, and reports over when the state is new and the
// budget is spent. free ends the store's use once the run is over.
type visitedStore interface {
	visit(key []byte, all, skip uint64) (todo uint64, isNew, over bool)
	free()
}

// serialVisited is the visited store of a serial run: one visitedSet, whose
// size is what the budget counts.
type serialVisited struct {
	visitedSet
	reserve func() bool
}

func newSerialVisited(fullKeys bool, budget int) *serialVisited {
	v := &serialVisited{visitedSet: newVisitedSet(fullKeys)}
	v.reserve = func() bool { return v.len() < budget }
	return v
}

func (v *serialVisited) visit(key []byte, all, skip uint64) (todo uint64, isNew, over bool) {
	var sum digest.Sum
	if v.full == nil {
		sum = digest.Sum128(key)
	}
	return v.visitedSet.visit(key, sum, all, skip, v.reserve)
}

// frame is one state being expanded: the system state, its enabled steps,
// and the reduction bookkeeping as bitmasks over the step indices.
type frame struct {
	sys   TransitionSystem
	steps []Step
	sleep uint64 // inherited sleepers: covered by an explored sibling subtree
	todo  uint64 // steps to expand from this visit
	done  uint64 // steps already expanded in this visit
	next  int    // the serial kernel's scan position into steps
}

// nextPending returns the index of the first step at or after i to expand
// from this visit, or len(f.steps). The todo mask describes only the first 64
// steps. A state with more is descended into only on its first visit, with
// every step to expand (its masks are all-ones and its revisits carry
// todo == 0), so indices past 63 are pending unconditionally.
func (f *frame) nextPending(i int) int {
	for i < len(f.steps) && i < 64 && f.todo&(uint64(1)<<i) == 0 {
		i++
	}
	return i
}

// maskAll returns a mask with the low n bits set (n <= 64).
func maskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// reducer holds the per-exploration scratch for the persistent-set closure.
type reducer struct {
	syncOrder bool
	fps       []AgentFootprints
	stepFP    []Footprint // per agent: union footprint of its enabled steps
	stepsOf   []uint64    // per agent: mask of its enabled steps
	attract   []uint64    // attract[p]: agents that must join A when p is in A
}

// persistentMask returns the mask of a smallest persistent subset of steps:
// all enabled steps of an agent set A closed under attraction. Agent q is
// attracted by p in A when q's future footprint conflicts with p's enabled
// steps (q could come to perform a step dependent on the chosen subset) or
// with p's wake footprint (q could unfreeze a disabled step of p, whose
// execution would be same-agent-dependent on p's chosen steps). Every agent
// with an enabled step is tried as the closure seed; ties keep the earliest
// seed, so the choice is deterministic. Falls back to the full mask when any
// agent is out of range or there are more than 64 agents (sound: merely
// unreduced).
func (r *reducer) persistentMask(sys TransitionSystem, steps []Step) uint64 {
	all := maskAll(len(steps))
	r.fps = sys.Footprints(r.fps[:0])
	n := len(r.fps)
	if n > 64 {
		return all
	}
	if cap(r.stepsOf) < n {
		r.stepsOf = make([]uint64, n)
		r.stepFP = make([]Footprint, n)
		r.attract = make([]uint64, n)
	}
	stepsOf := r.stepsOf[:n]
	stepFP := r.stepFP[:n]
	attract := r.attract[:n]
	for i := range stepsOf {
		stepsOf[i] = 0
		stepFP[i] = Footprint{}
	}
	var seeds uint64 // agents holding at least one enabled step
	for i, s := range steps {
		if s.Agent < 0 || s.Agent >= n {
			return all
		}
		stepsOf[s.Agent] |= uint64(1) << i
		seeds |= uint64(1) << s.Agent
		fp := s.footprint()
		sfp := &stepFP[s.Agent]
		sfp.Reads |= fp.Reads
		sfp.Writes |= fp.Writes
		sfp.Wild = sfp.Wild || fp.Wild
		sfp.Sync = sfp.Sync || fp.Sync
		sfp.Opaque = sfp.Opaque || fp.Opaque
		sfp.Fence = sfp.Fence || fp.Fence
	}
	// Attraction ranges over ALL agents, enabled or not: a currently frozen
	// agent pulled into A constrains the closure through its wake footprint
	// exactly like an enabled one (its steps must not fire behind the chosen
	// subset's back).
	for p := 0; p < n; p++ {
		var c uint64
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			if r.fps[q].Future.Conflicts(stepFP[p], r.syncOrder) || r.fps[q].Future.Conflicts(r.fps[p].Wake, r.syncOrder) {
				c |= uint64(1) << q
			}
		}
		attract[p] = c
	}
	best := all
	for s := seeds; s != 0; s &= s - 1 {
		seed := bits.TrailingZeros64(s)
		agents := uint64(1) << seed
		for {
			grown := agents
			for a := agents; a != 0; a &= a - 1 {
				grown |= attract[bits.TrailingZeros64(a)]
			}
			if grown == agents {
				break
			}
			agents = grown
		}
		var p uint64
		for a := agents; a != 0; a &= a - 1 {
			p |= stepsOf[bits.TrailingZeros64(a)]
		}
		if bits.OnesCount64(p) < bits.OnesCount64(best) {
			best = p
		}
	}
	return best
}

// Run explores the system, calling final on every distinct terminal state
// (deduplicated by canonical key). final returning false stops early. Run
// reports statistics via the returned Stats even on early stop or error.
//
// The serial search is an explicit-stack depth-first traversal preserving
// the pre-order of the step lists, so state spaces bounded only by MaxStates
// cannot overflow the goroutine stack. Each run takes its working storage
// from package pools and returns it there, so one Explorer may be shared by
// concurrent explorations.
//
// Run never hands the caller's sys to final and never recycles it: the
// search starts from a clone. final may read the state it is handed only
// until it returns, and must clone it to keep it: the state is then
// recycled, like every other state the search drops, as the storage of a
// later clone (see TransitionSystem.Clone). No state is on a free list, or
// referenced by the kernel at all, once Run returns.
func (x *Explorer) Run(sys TransitionSystem, final func(TransitionSystem) bool) (Stats, error) {
	width, release := x.resolveWorkers()
	defer release()
	if width > 1 {
		return x.runParallel(sys, final, width)
	}
	r := &run{x: x, visited: newSerialVisited(x.FullKeys, x.budget()), final: final}
	defer r.visited.free()
	w := r.newWorker(0)
	defer w.release()
	err := w.dfs(sys.Clone(nil))
	return w.stats, err
}

// run is what one Run's workers share: the visited store, the stop flag, the
// caller's final callback, and at widths above 1 the parallel frontier.
type run struct {
	x       *Explorer
	visited visitedStore
	stop    atomic.Bool
	finalMu sync.Mutex // serializes the caller's final callback
	final   func(TransitionSystem) bool
	*pool   // nil in a serial run
}

// halt stops the run. The serial search and every parallel worker check the
// flag before they expand another state, and parked workers are woken to see
// it.
func (r *run) halt() {
	r.stop.Store(true)
	if r.pool != nil {
		r.wakeAll()
	}
}

// worker is one goroutine's share of a run: the reducer's scratch, the
// reused key and sleep buffers, the serial kernel's stack, the free list and
// the stats. A serial run has one worker and a parallel run one per
// goroutine; both enter every state through worker.enter. Workers come from
// workerPool and go back to it when the run returns, so an exploration
// starts with the buffers an earlier one grew.
type worker struct {
	run *run
	red reducer
	key []byte
	// sleep is the sleep set of the child entered next; enter reads it only
	// before it returns. The serial kernel enters its root with it too, so a
	// pooled worker must hold an empty one.
	sleep []Step
	// free holds the states this worker dropped, the storage of its next
	// clones. In a parallel run states migrate between workers with the
	// items that carry them, so a worker that drops more than it clones
	// would hoard them without the maxFree cap.
	free  []TransitionSystem
	stats Stats

	// The serial kernel's scratch: the explicit DFS stack, and stepBufs[d],
	// the step list of the stack frame at depth d, its only user (a child
	// entered at depth d exists only once the frame that was there has been
	// popped).
	stack    []frame
	stepBufs [][]Step

	// A parallel worker's own scratch.
	id    int
	steps []Step     // the step list of the state being expanded
	pubs  []workItem // the siblings of one expansion, awaiting publication
}

// maxFree caps a worker's free list.
const maxFree = 64

// workerPool hands workers, and with them their scratch, from one
// exploration to the next.
var workerPool = sync.Pool{New: func() any { return new(worker) }}

// maxPooledDepth bounds the workers the pool keeps: a worker whose serial
// stack grew deeper is dropped when its run ends, so one deep exploration
// does not leave its stack and step buffers pinned.
const maxPooledDepth = 1 << 10

// newWorker takes a worker from the pool for run r.
func (r *run) newWorker(id int) *worker {
	w := workerPool.Get().(*worker)
	w.run, w.id, w.red.syncOrder = r, id, r.x.VisibleSyncOrder
	return w
}

// release hands w back to the pool once its run is over, holding buffers
// only: its stats are zeroed, its sleep set emptied, and every state it
// referenced (on its free list, in a stack frame, popped or not, or in an
// unpublished sibling) forgotten, so no state has two owners. A worker whose
// stack grew past maxPooledDepth is left to the collector instead.
func (w *worker) release() {
	clear(w.free)
	clear(w.stack[:cap(w.stack)])
	clear(w.pubs[:cap(w.pubs)])
	w.free, w.stack, w.pubs = w.free[:0], w.stack[:0], w.pubs[:0]
	w.sleep = w.sleep[:0]
	w.stats = Stats{}
	w.run = nil
	if len(w.stepBufs) <= maxPooledDepth {
		workerPool.Put(w)
	}
}

// drop recycles a state the worker no longer references.
func (w *worker) drop(s TransitionSystem) {
	if len(w.free) < maxFree {
		w.free = append(w.free, s)
	}
}

// clone copies s into the storage of a dropped state, if the worker has one.
func (w *worker) clone(s TransitionSystem) TransitionSystem {
	var reuse TransitionSystem
	if n := len(w.free); n > 0 {
		reuse, w.free[n-1], w.free = w.free[n-1], nil, w.free[:n-1]
	}
	return s.Clone(reuse)
}

// apply performs step t on s and counts the transition.
func (w *worker) apply(s TransitionSystem, t Step) error {
	if err := s.Apply(t); err != nil {
		return fmt.Errorf("explore: applying %s on %s: %w", t, s.Name(), err)
	}
	w.stats.Transitions++
	return nil
}

// enter processes one state s, entered with the sleep set sleep, at either
// width: path bound, step computation into *buf, reduction masks, the
// visited-store transition, budget, terminal delivery. It returns the frame
// to expand and true when s has steps left to expand. Otherwise it drops s
// onto the free list, whichever worker cloned it, a terminal state once
// final has returned. (A parallel work item is handed over under its deque's
// mutex, so no other worker holds its state.)
func (w *worker) enter(s TransitionSystem, sleep []Step, buf *[]Step) (frame, bool, error) {
	r, x := w.run, w.run.x
	if s.Prune() {
		w.stats.Truncated++
		w.drop(s)
		return frame{}, false, nil
	}
	// Compute steps before keying: Steps may normalize lazy state so that
	// equivalent states reached along different paths key identically.
	steps := s.Steps((*buf)[:0])
	*buf = steps
	w.key = s.AppendKey(w.key[:0])
	sleepMask, skip := x.skipMasks(&w.red, s, steps, sleep)
	todo, isNew, over := r.visited.visit(w.key, maskAll(len(steps)), skip)
	if over {
		// Both stores count reservations, so at any width the budget trips
		// with exactly MaxStates distinct states committed.
		return frame{}, false, &StateBudgetError{System: s.Name(), States: x.budget()}
	}
	if isNew {
		w.stats.States++
		if len(steps) == 0 {
			if !s.Done() {
				if x.AllowStuck {
					w.drop(s)
					return frame{}, false, nil
				}
				return frame{}, false, fmt.Errorf("explore: %s deadlocked (no enabled steps, not done)", s.Name())
			}
			w.deliver(s)
			return frame{}, false, nil
		}
	}
	// A revisit re-expands exactly the steps skipped when the state was last
	// left that are expandable now (the persistent set is a deterministic
	// function of the state, so the difference can only come from a smaller
	// sleep set; Steps order is canonical, so the positional masks align).
	// Nothing to expand — a revisit covered before, or a first visit whose
	// every step is asleep or outside the persistent set — leaves the state
	// a leaf of the reduced search.
	if todo == 0 {
		w.drop(s)
		return frame{}, false, nil
	}
	return frame{sys: s, steps: steps, sleep: sleepMask, todo: todo}, true, nil
}

// deliver hands a terminal state to final on its first visit: the visited
// store admitted its key just now, so this is its one delivery. The callback
// is serialized — callers' closures are not required to be thread-safe — and
// suppressed after a stop, so an early stop is prompt at any width. A stop
// the callback asks for is set before the mutex is released, so no other
// worker delivers after it. final reads the state only until it returns, so
// the state is then dropped.
func (w *worker) deliver(s TransitionSystem) {
	r := w.run
	stopped := false
	r.finalMu.Lock()
	if !r.stop.Load() {
		w.stats.Finals++
		if stopped = !r.final(s); stopped {
			r.stop.Store(true)
		}
	}
	r.finalMu.Unlock()
	w.drop(s)
	if stopped {
		r.halt()
	}
}

// dfs is the serial kernel: an explicit-stack depth-first search from root.
// Each child is cloned from its frame, entered and explored before the next
// sibling is, except the last, which consumes the frame's state in place.
func (w *worker) dfs(root TransitionSystem) error {
	x := w.run.x
	if err := w.push(root); err != nil {
		return err
	}
	for len(w.stack) > 0 && !w.run.stop.Load() {
		top := &w.stack[len(w.stack)-1]
		i := top.nextPending(top.next)
		if i == len(top.steps) {
			// Defensive: enter never descends with nothing to expand, and
			// the last pending step consumes its frame below.
			w.drop(top.sys)
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		top.next = i + 1
		t := top.steps[i]
		// The child's sleep set: every step already covered at this state —
		// inherited sleepers plus siblings expanded before t — that commutes
		// with t. Dependent steps wake up (their interleavings past t are
		// genuinely new); commuting ones stay asleep below t. Steps outside
		// the persistent set are NOT passed down: their coverage argument is
		// the persistence of the chosen subset, not an explored sibling
		// subtree.
		w.sleep = x.appendChildSleep(w.sleep[:0], top.steps, top.sleep|top.done, t)
		top.done |= uint64(1) << i
		var c TransitionSystem
		if top.nextPending(i+1) == len(top.steps) {
			// Last child: this frame is exhausted and will never be touched
			// again, so the child consumes the parent system in place — one
			// whole clone saved per expanded state (states with a single
			// successor, the common case on long deterministic runs, clone
			// nothing at all).
			c = top.sys
			w.stack = w.stack[:len(w.stack)-1]
		} else {
			c = w.clone(top.sys)
		}
		if err := w.apply(c, t); err != nil {
			return err
		}
		if err := w.push(c); err != nil {
			return err
		}
	}
	return nil
}

// push enters s, with the sleep set w.sleep, one level below the top of the
// serial stack, and pushes its frame when it has steps to expand.
func (w *worker) push(s TransitionSystem) error {
	d := len(w.stack)
	if d == len(w.stepBufs) {
		w.stepBufs = append(w.stepBufs, nil)
	}
	f, descend, err := w.enter(s, w.sleep, &w.stepBufs[d])
	if descend {
		w.stack = append(w.stack, f)
	}
	return err
}

// budget is the effective MaxStates.
func (x *Explorer) budget() int {
	if x.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return x.MaxStates
}

// skipMasks computes, for a state with the given enabled steps entered with
// the given sleep set, the positions of its sleeping steps and the steps
// this visit will not expand: the sleepers plus everything outside the
// persistent set. States with more than 64 enabled steps fall back to full
// expansion — sound, merely unreduced — since the masks cannot describe
// them.
func (x *Explorer) skipMasks(red *reducer, s TransitionSystem, steps, sleep []Step) (sleepMask, skip uint64) {
	if len(steps) > 64 || x.FullExploration {
		return 0, 0
	}
	for _, sl := range sleep {
		// A sleeping step is necessarily still enabled here (independence
		// preserves enabledness), so identity matching against the current
		// list loses nothing.
		for i := range steps {
			if steps[i].same(sl) {
				sleepMask |= uint64(1) << i
				break
			}
		}
	}
	skip = sleepMask
	if len(steps) > 1 {
		skip |= maskAll(len(steps)) &^ red.persistentMask(s, steps)
	}
	return sleepMask, skip
}

// appendChildSleep appends to buf the sleep set of the child reached by t:
// the steps of covered (the sleepers and already-expanded siblings, as a
// mask over steps) that commute with t.
func (x *Explorer) appendChildSleep(buf, steps []Step, covered uint64, t Step) []Step {
	if x.FullExploration || covered == 0 {
		return buf
	}
	for j := 0; j < len(steps) && j < 64; j++ {
		if covered&(uint64(1)<<j) != 0 && Independent(steps[j], t, x.VisibleSyncOrder) {
			buf = append(buf, steps[j])
		}
	}
	return buf
}
