package mem

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// EventID identifies one event within an execution. IDs are dense and
// allocated in the order events are appended to an Execution.
type EventID int

// NoEvent is the sentinel for "no event" (e.g. a read with no visible write).
const NoEvent EventID = -1

// Event is one completed memory access inside a recorded execution, tagged
// with its position in its processor's program order. Events are the nodes of
// the happens-before relation in internal/core.
type Event struct {
	ID    EventID
	Index int // position in issuing processor's program order (0-based)
	Access
}

// Execution is a recorded execution: a set of events plus, for executions on
// the idealized architecture, the total completion order in which they
// executed (Completed[i] gives the i-th completed event ID). For executions
// on real (non-idealized) machines Completed may hold the commit order, or be
// nil when no total order is meaningful.
type Execution struct {
	Events    []Event
	Completed []EventID
	NumProcs  int
}

// NewExecution returns an empty execution for n processors.
func NewExecution(n int) *Execution {
	return &Execution{NumProcs: n}
}

// Append adds an access as the next event of its processor (program-order
// index one past the processor's current maximum), records it in the
// completion order, and returns its ID. Use AppendAt when completion order
// and program order diverge.
func (e *Execution) Append(a Access) EventID {
	idx := 0
	for i := len(e.Events) - 1; i >= 0; i-- {
		if e.Events[i].Proc == a.Proc {
			idx = e.Events[i].Index + 1
			break
		}
	}
	return e.AppendAt(a, idx)
}

// AppendAt adds an access with an explicit program-order index, recording its
// completion position as the current end of the trace. Relaxed machines use
// this when an operation completes out of program order.
func (e *Execution) AppendAt(a Access, index int) EventID {
	if int(a.Proc) >= e.NumProcs {
		e.NumProcs = int(a.Proc) + 1
	}
	id := EventID(len(e.Events))
	e.Events = append(e.Events, Event{ID: id, Index: index, Access: a})
	e.Completed = append(e.Completed, id)
	return id
}

// ByProc returns the event IDs of each processor in program order.
func (e *Execution) ByProc() [][]EventID {
	out := make([][]EventID, e.NumProcs)
	for _, ev := range e.Events {
		out[ev.Proc] = append(out[ev.Proc], ev.ID)
	}
	for _, ids := range out {
		sort.Slice(ids, func(i, j int) bool {
			return e.Events[ids[i]].Index < e.Events[ids[j]].Index
		})
	}
	return out
}

// Event returns the event with the given ID.
func (e *Execution) Event(id EventID) Event { return e.Events[id] }

// Len returns the number of events.
func (e *Execution) Len() int { return len(e.Events) }

// Validate checks structural invariants: per-processor indices are dense and
// start at zero, Completed (when present) is a permutation of event IDs, and
// every Op is a defined kind. It returns a descriptive error on the first
// violation found.
func (e *Execution) Validate() error {
	next := make(map[ProcID]int)
	for _, ev := range e.Events {
		if !ev.Op.Valid() {
			return fmt.Errorf("event %d: invalid op %d", ev.ID, ev.Op)
		}
		if int(ev.Proc) < 0 || int(ev.Proc) >= e.NumProcs {
			return fmt.Errorf("event %d: processor P%d out of range [0,%d)", ev.ID, ev.Proc, e.NumProcs)
		}
	}
	// Indices dense per processor, checked in ID order of appearance.
	perProc := make(map[ProcID][]Event)
	for _, ev := range e.Events {
		perProc[ev.Proc] = append(perProc[ev.Proc], ev)
	}
	for p, evs := range perProc {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Index < evs[j].Index })
		for i, ev := range evs {
			if ev.Index != i {
				return fmt.Errorf("P%d: program-order indices not dense at event %d (index %d, want %d)", p, ev.ID, ev.Index, i)
			}
		}
		next[p] = len(evs)
	}
	if e.Completed != nil {
		if len(e.Completed) != len(e.Events) {
			return fmt.Errorf("completion order has %d entries for %d events", len(e.Completed), len(e.Events))
		}
		seen := make([]bool, len(e.Events))
		for _, id := range e.Completed {
			if id < 0 || int(id) >= len(e.Events) {
				return fmt.Errorf("completion order references unknown event %d", id)
			}
			if seen[id] {
				return fmt.Errorf("completion order repeats event %d", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// FinalState returns the final value of every location, taking the last write
// in completion order (or event order when Completed is nil).
func (e *Execution) FinalState() map[Addr]Value {
	out := make(map[Addr]Value)
	order := e.Completed
	if order == nil {
		order = make([]EventID, len(e.Events))
		for i := range e.Events {
			order[i] = EventID(i)
		}
	}
	for _, id := range order {
		ev := e.Events[id]
		if ev.Op.Writes() {
			v := ev.Value
			if ev.Op == OpSyncRMW {
				v = ev.WValue
			}
			out[ev.Addr] = v
		}
	}
	return out
}

// String renders the execution one event per line in completion order.
func (e *Execution) String() string {
	var b strings.Builder
	order := e.Completed
	if order == nil {
		order = make([]EventID, len(e.Events))
		for i := range e.Events {
			order[i] = EventID(i)
		}
	}
	for _, id := range order {
		fmt.Fprintf(&b, "%3d: %s\n", id, e.Events[id].Access)
	}
	return b.String()
}

// Result is the paper's notion of the result of an execution: "the union of
// the values returned by all the read operations in the execution and the
// final state of memory". Two executions of the same program are equivalent
// iff their Results are equal.
type Result struct {
	// Reads maps (proc, program-order index) to the value returned. Only
	// operations with a read component appear.
	Reads map[ReadKey]Value
	// Final is the final state of memory.
	Final map[Addr]Value
}

// ReadKey locates a dynamic read by processor and program-order index.
type ReadKey struct {
	Proc  ProcID
	Index int
}

// ResultOf extracts the Result of an execution.
func ResultOf(e *Execution) Result {
	r := Result{Reads: make(map[ReadKey]Value), Final: e.FinalState()}
	for _, ev := range e.Events {
		if ev.Op.Reads() {
			r.Reads[ReadKey{ev.Proc, ev.Index}] = ev.Value
		}
	}
	return r
}

// Equal reports whether two results are identical.
func (r Result) Equal(o Result) bool {
	if len(r.Reads) != len(o.Reads) || len(r.Final) != len(o.Final) {
		return false
	}
	for k, v := range r.Reads {
		if ov, ok := o.Reads[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range r.Final {
		if ov, ok := o.Final[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the result, usable as a map key when
// collecting the set of distinct results of a program: the reads ordered by
// (processor, index), each rendered by AppendKeyRead, then AppendKeyMemory's
// separator, then the final memory ordered by address, each rendered by
// AppendKeyFinal. The operational machines render the same bytes straight
// from their state through the same three functions, so the format lives
// there alone.
func (r Result) Key() string {
	type rk struct {
		k ReadKey
		v Value
	}
	rs := make([]rk, 0, len(r.Reads))
	for k, v := range r.Reads {
		rs = append(rs, rk{k, v})
	}
	slices.SortFunc(rs, func(x, y rk) int {
		if c := cmp.Compare(x.k.Proc, y.k.Proc); c != 0 {
			return c
		}
		return cmp.Compare(x.k.Index, y.k.Index)
	})
	type fk struct {
		a Addr
		v Value
	}
	fs := make([]fk, 0, len(r.Final))
	for a, v := range r.Final {
		fs = append(fs, fk{a, v})
	}
	slices.SortFunc(fs, func(x, y fk) int { return cmp.Compare(x.a, y.a) })
	b := make([]byte, 0, 12*len(rs)+8*len(fs)+1)
	for _, x := range rs {
		b = AppendKeyRead(b, x.k, x.v)
	}
	b = AppendKeyMemory(b)
	for _, x := range fs {
		b = AppendKeyFinal(b, x.a, x.v)
	}
	return string(b)
}

// AppendKeyRead appends one read of a result key: "P<proc>.<index>=<value>;".
func AppendKeyRead(b []byte, k ReadKey, v Value) []byte {
	b = append(b, 'P')
	b = strconv.AppendInt(b, int64(k.Proc), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(k.Index), 10)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ';')
}

// AppendKeyMemory appends the separator between a result key's reads and
// its final memory.
func AppendKeyMemory(b []byte) []byte { return append(b, '|') }

// AppendKeyFinal appends one final-memory location of a result key:
// "x<addr>=<value>;".
func AppendKeyFinal(b []byte, a Addr, v Value) []byte {
	b = append(b, 'x')
	b = strconv.AppendUint(b, uint64(a), 10)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ';')
}

// ParseResultKey decodes a result key back into its Result. It is strict: it
// accepts exactly the strings Key renders — reads in increasing (processor,
// index) order, locations in increasing address order, every number in
// canonical decimal and in range — so the Key of a decoded Result is the key
// itself, byte for byte.
func ParseResultKey(key string) (Result, error) {
	reads, final, ok := strings.Cut(key, "|")
	if !ok {
		return Result{}, fmt.Errorf("mem: result key %q has no '|'", key)
	}
	r := Result{
		Reads: make(map[ReadKey]Value, strings.Count(reads, ";")),
		Final: make(map[Addr]Value, strings.Count(final, ";")),
	}
	last := ReadKey{Proc: -1}
	for rest := reads; rest != ""; {
		entry, tail, found := strings.Cut(rest, ";")
		k, v, ok := parseRead(entry)
		if !found || !ok {
			return Result{}, fmt.Errorf("mem: result key %q: malformed read %q", key, entry)
		}
		if k.Proc < last.Proc || k.Proc == last.Proc && k.Index <= last.Index {
			return Result{}, fmt.Errorf("mem: result key %q: read %q out of order", key, entry)
		}
		r.Reads[k], last, rest = v, k, tail
	}
	var prev Addr
	for rest := final; rest != ""; {
		entry, tail, found := strings.Cut(rest, ";")
		a, v, ok := parseLocation(entry)
		if !found || !ok {
			return Result{}, fmt.Errorf("mem: result key %q: malformed location %q", key, entry)
		}
		if len(r.Final) > 0 && a <= prev {
			return Result{}, fmt.Errorf("mem: result key %q: location %q out of order", key, entry)
		}
		r.Final[a], prev, rest = v, a, tail
	}
	return r, nil
}

// parseRead decodes one read of a result key without its ';':
// "P<proc>.<index>=<value>".
func parseRead(entry string) (ReadKey, Value, bool) {
	lhs, v, ok := parseEntry(entry, 'P')
	procs, index, dot := strings.Cut(lhs, ".")
	p, okP := parseCount(procs, math.MaxInt)
	i, okI := parseCount(index, math.MaxInt)
	return ReadKey{Proc: ProcID(p), Index: int(i)}, v, ok && dot && okP && okI
}

// parseLocation decodes one final-memory location of a result key without
// its ';': "x<addr>=<value>".
func parseLocation(entry string) (Addr, Value, bool) {
	lhs, v, ok := parseEntry(entry, 'x')
	a, okA := parseCount(lhs, math.MaxUint32)
	return Addr(a), v, ok && okA
}

// parseEntry splits "<tag><lhs>=<value>" and decodes the value, which must be
// a canonical decimal int64.
func parseEntry(entry string, tag byte) (lhs string, v Value, ok bool) {
	if entry == "" || entry[0] != tag {
		return "", 0, false
	}
	lhs, val, ok := strings.Cut(entry[1:], "=")
	x, err := strconv.ParseInt(val, 10, 64)
	var buf [24]byte
	return lhs, Value(x), ok && err == nil && string(strconv.AppendInt(buf[:0], x, 10)) == val
}

// parseCount decodes a canonical unsigned decimal (no sign, no leading zero)
// of at most limit.
func parseCount(s string, limit uint64) (uint64, bool) {
	x, err := strconv.ParseUint(s, 10, 64)
	var buf [24]byte
	return x, err == nil && x <= limit && string(strconv.AppendUint(buf[:0], x, 10)) == s
}
