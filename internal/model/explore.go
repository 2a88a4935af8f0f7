package model

import (
	"cmp"
	"slices"
	"sync"

	"weakorder/internal/core"
	"weakorder/internal/explore"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// Explorer exhaustively enumerates the behaviors of a Machine by adapting it
// to the shared exploration kernel (internal/explore): depth-first search
// over its nondeterministic transitions with state deduplication by canonical
// key and conflict-driven partial-order reduction. The key mode determines
// what the deduplicated enumeration preserves; see KeyMode.
type Explorer struct {
	// MaxStates bounds the number of distinct states visited (0 = the
	// DefaultMaxStates safety net). Exceeding it aborts with an error
	// satisfying errors.Is(err, ErrStateBudget).
	MaxStates int
	// Mode selects the state-key granularity. The zero value (KeyState) is
	// correct for final-state/litmus enumeration.
	Mode KeyMode
	// MaxTraceOps, when positive, prunes any path whose recorded trace
	// exceeds this many memory operations. Programs with unbounded spin
	// loops have infinitely many executions of unbounded length; under
	// KeyResult/KeyExecution (whose keys embed history) a bound is the only
	// way to terminate. Pruned paths are counted in Stats.Truncated, so a
	// nonzero count flags the enumeration as length-bounded rather than
	// exhaustive.
	MaxTraceOps int
	// FullExploration disables the partial-order reduction: every enabled
	// transition of every state is expanded. The escape hatch for debugging
	// and for the differential tests that pin POR soundness.
	FullExploration bool
	// FullKeys, when true, deduplicates on the full canonical key encoding
	// instead of its 128-bit digest, and has the machines render every
	// recorded read and sync and every register into that encoding, where
	// the default keys hold one digest per history chain and only the
	// registers a thread writes. The digest path is what production sweeps
	// use (constant memory per visited state, no per-state allocation, a key
	// whose cost does not grow with history); the full-key path is
	// collision-free by construction and exists as a debug cross-check —
	// tests explore both ways and assert identical Stats.
	FullKeys bool
	// Workers selects the exploration width, passed through to the kernel:
	// 0 or 1 serial, n > 1 that many workers sharing one search, negative
	// auto-sized from the par budget. Any width produces the same outcome
	// set; visit order and reduced-mode Stats, and so whether a search near
	// MaxStates exhausts it, may vary above width 1. See
	// explore.Explorer.Workers. A fuzz.Checker given a negative width runs a
	// verdict's explorations side by side instead, each of them serially
	// (fuzz.Checker.Check).
	Workers int
}

// DefaultMaxStates is the safety net applied when Explorer.MaxStates is 0.
const DefaultMaxStates = explore.DefaultMaxStates

// ErrStateBudget reports that exploration exceeded MaxStates. Visit returns
// it wrapped with the machine name; check with errors.Is.
var ErrStateBudget = explore.ErrStateBudget

// StateBudgetError is the concrete budget error, carrying the distinct states
// the exploration visited before it stopped; extract it with errors.As.
type StateBudgetError = explore.StateBudgetError

// Stats summarizes one exploration.
type Stats = explore.Stats

// machineSystem adapts a Machine to the kernel's TransitionSystem: it carries
// the key mode and trace bound, and presents the machine's steps in a
// canonical order. The machines emit drains and deliveries in internal list
// order, which is not a function of the state key (equivalent states reached
// along different paths hold their lists in different cross-group orders),
// so the adapter sorts by (Kind, Proc, Addr) — a total order on them, since
// per-(agent, addr) FIFO retirement enables at most one per (Proc, Addr)
// pair at once — giving the kernel the position-aligned step lists its
// per-state masks require.
type machineSystem struct {
	m           Machine
	mode        KeyMode
	maxTraceOps int
	race        *raceProbe     // set on a CheckSC pass; shared by every clone
	states      *runStates     // shared by every clone
	next        *machineSystem // the state runStates recorded before this one
}

func (s *machineSystem) Name() string { return s.m.Name() }

// Clone implements explore.TransitionSystem: the machine is copied into the
// recycled state's machine, or, without one, into a state runStates provides.
func (s *machineSystem) Clone(reuse explore.TransitionSystem) explore.TransitionSystem {
	c, _ := reuse.(*machineSystem)
	if c == nil {
		c = s.states.fresh()
	}
	c.m = s.m.CloneInto(c.m)
	c.mode, c.maxTraceOps, c.race, c.states = s.mode, s.maxTraceOps, s.race, s.states
	return c
}

// deadStates holds, per machine kind, states whose exploration is over: the
// storage of later explorations' fresh clones. A pooled state may come from
// another program, whose machine CloneInto overwrites whole (it reuses any
// dst of its kind that nothing references).
var deadStates [kindWeakOrdered + 1]sync.Pool

// runStates is what one exploration knows of its states: every one its
// Clone(nil) calls handed out, linked through machineSystem.next, so that
// once the kernel has returned, and references none of them, they can all go
// to the pool of the machine's kind. The kernel clones without a recycled
// state only when a worker's free list is empty, so the mutex is rarely
// taken.
type runStates struct {
	pool *sync.Pool
	mu   sync.Mutex
	last *machineSystem
}

// fresh returns a state from the pool, or a new one, and records it.
func (r *runStates) fresh() *machineSystem {
	c, _ := r.pool.Get().(*machineSystem)
	if c == nil {
		c = &machineSystem{}
	}
	r.mu.Lock()
	c.next, r.last = r.last, c
	r.mu.Unlock()
	return c
}

// release hands every recorded state to the pool, unlinked from the run.
// The exploration must be over.
func (r *runStates) release() {
	for s := r.last; s != nil; {
		next := s.next
		s.next, s.race, s.states = nil, nil, nil
		r.pool.Put(s)
		s = next
	}
	r.last = nil
}

func (s *machineSystem) Steps(buf []explore.Step) []explore.Step {
	n := len(buf)
	buf = s.m.Transitions(buf)
	steps := buf[n:]
	slices.SortStableFunc(steps, compareSteps)
	if s.race != nil {
		s.race.observe(s.m, steps)
	}
	return buf
}

// compareSteps orders steps by (Kind, Proc, Addr).
func compareSteps(x, y explore.Step) int {
	if c := cmp.Compare(x.Kind, y.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Proc, y.Proc); c != 0 {
		return c
	}
	return cmp.Compare(x.Info.Addr, y.Info.Addr)
}

func (s *machineSystem) Apply(t explore.Step) error { return s.m.Apply(t) }

func (s *machineSystem) Done() bool { return s.m.Done() }

func (s *machineSystem) AppendKey(key []byte) []byte { return s.m.AppendKey(s.mode, key) }

func (s *machineSystem) Prune() bool {
	if s.race != nil && s.race.halted() {
		return true
	}
	return s.maxTraceOps > 0 && s.m.TraceLen() > s.maxTraceOps
}

func (s *machineSystem) Footprints(buf []explore.AgentFootprints) []explore.AgentFootprints {
	return s.m.Footprints(buf)
}

// Visit runs the exploration, calling fn on every distinct completed machine
// (Done() true, deduplicated under Mode). fn returning false stops early.
// Visit reports statistics via the returned Stats even on early stop. fn may
// read the machine it is handed only until it returns; the machine's storage
// is then reused, by this exploration or, through a process-wide pool, by a
// later one in any goroutine, so fn must clone (CloneInto(nil)) what it
// keeps. Visit never modifies or keeps m.
func (x *Explorer) Visit(m Machine, fn func(Machine) bool) (Stats, error) {
	return x.visit(m, nil, fn)
}

// visit is Visit with an optional race probe watching every entered state.
func (x *Explorer) visit(m Machine, race *raceProbe, fn func(Machine) bool) (Stats, error) {
	k := explore.Explorer{
		MaxStates:       x.MaxStates,
		FullExploration: x.FullExploration,
		FullKeys:        x.FullKeys,
		Workers:         x.Workers,
		// KeyExecution keys embed the global sync log, so the relative order
		// of sync steps on different locations is observable; coarser modes
		// only see sync effects through their memory locations.
		VisibleSyncOrder: x.Mode >= KeyExecution,
	}
	mode := x.Mode
	if x.FullKeys {
		mode |= keyFull
	}
	states := &runStates{pool: &deadStates[m.Behavior().kind]}
	sys := &machineSystem{m: m, mode: mode, maxTraceOps: x.MaxTraceOps, race: race, states: states}
	st, err := k.Run(sys, func(s explore.TransitionSystem) bool {
		return fn(s.(*machineSystem).m)
	})
	states.release()
	return st, err
}

// Outcomes collects the set of distinct Results (the paper's notion: all read
// values plus final memory) the machine can produce, as their result keys. It
// forces at least KeyResult granularity so deduplication cannot merge
// distinct Results.
func (x *Explorer) Outcomes(m Machine) (core.OutcomeSet, Stats, error) {
	sub := *x
	if sub.Mode < KeyResult {
		sub.Mode = KeyResult
	}
	out := make(core.OutcomeSet)
	st, err := sub.Visit(m, collect(out))
	return out, st, err
}

// collect returns a Visit callback adding each terminal machine's result key
// to out. The key is rendered into a reused buffer, so only a key new to the
// set is copied.
func collect(out core.OutcomeSet) func(Machine) bool {
	var key []byte
	return func(f Machine) bool {
		key = f.AppendResultKey(key[:0])
		if _, ok := out[string(key)]; !ok {
			out[string(key)] = struct{}{}
		}
		return true
	}
}

// FinalStates collects the distinct final states (registers + memory),
// sufficient for litmus conditions; KeyState granularity suffices. Each
// FinalState is built fresh, so fn may keep it.
func (x *Explorer) FinalStates(m Machine, fn func(*program.FinalState) bool) (Stats, error) {
	return x.Visit(m, func(f Machine) bool { return fn(f.Final()) })
}

// Enumerator adapts (program, explorer) to the core.ExecutionEnumerator
// interface so core.CheckProgram can quantify over all idealized executions:
// it explores the SC machine — Definition 3 is stated over the idealized
// architecture — at KeyExecution granularity, so every distinct
// happens-before relation is produced. It also implements core.DRF0Decider,
// which lets CheckProgram answer "does the program obey DRF0?" with one
// CheckSC pass instead.
type Enumerator struct {
	Prog     *program.Program
	Explorer *Explorer
}

var (
	_ core.ExecutionEnumerator = (*Enumerator)(nil)
	_ core.DRF0Decider         = (*Enumerator)(nil)
)

func (e *Enumerator) explorer() *Explorer {
	if e.Explorer == nil {
		return &Explorer{}
	}
	return e.Explorer
}

// DecideDRF0 implements core.DRF0Decider: one CheckSC pass that stops at the
// first race. Executions counts the distinct SC results the pass reached.
func (e *Enumerator) DecideDRF0() (*core.ProgramReport, error) {
	pass, err := e.explorer().CheckSC(e.Prog, true)
	if err != nil {
		return nil, err
	}
	rep := &core.ProgramReport{Model: core.DRF0{}.Name(), Executions: pass.Stats.Finals}
	if pass.Race != nil {
		rep.Violations = []*core.Report{pass.Race}
	}
	return rep, nil
}

// IdealizedExecutions implements core.ExecutionEnumerator.
func (e *Enumerator) IdealizedExecutions(fn func(*mem.Execution) bool) error {
	sub := *e.explorer()
	if sub.Mode < KeyExecution {
		sub.Mode = KeyExecution
	}
	_, err := sub.Visit(NewSC(e.Prog), func(f Machine) bool { return fn(f.Trace()) })
	return err
}
