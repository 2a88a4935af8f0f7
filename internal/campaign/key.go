package campaign

import (
	"encoding/binary"
	"math"
	"sort"

	"weakorder/internal/digest"
	"weakorder/internal/faults"
	"weakorder/internal/mem"
	"weakorder/internal/program"
)

// KeyVersion names the cache-key derivation. Any change to the program
// encoding, the option encoding, or the meaning of a Verdict bumps it; the
// version byte leads the hashed bytes, so old and new keys can never collide
// — and the Store's header version (StoreVersion) bumps with it, so old
// segments are invalidated wholesale rather than misread.
const KeyVersion = 1

// Options are the verdict-affecting knobs of one exploration — exactly the
// set that goes into the cache key alongside the program.
//
// In by necessity: the machine set (different machines, different verdicts),
// the state budget (a budget change can turn a verdict into a skip and back),
// the trace bound (changes which executions are enumerated), and the chaos
// fault schedule (seed and rates pick the injected faults).
//
// Out by construction: the partial-order reduction and the exploration
// width. They leave outcome sets alone (TestPOREquivalence,
// TestExploreWorkerWidthDeterminism), but not state counts, so not whether
// a budget trips: a POR-off campaign at max_states 100 skips programs a
// reduced one decides, and a parallel search's count varies from run to
// run. So no verdict path offers either as a setting: every exploration a
// cached verdict rests on runs serially with the reduction on
// (fuzz.Checker.Check). The key_test.go sensitivity matrix pins that every
// field here is keyed and the program's name is not.
type Options struct {
	// Machines lists the machine names under test, in campaign order (order
	// is keyed: it fixes the order of Violating lists in verdicts).
	Machines []string
	// MaxStates is the effective per-exploration state budget (after
	// defaulting — callers pass the resolved value, never 0-meaning-default).
	MaxStates int
	// MaxTraceOps is the effective trace bound.
	MaxTraceOps int
	// Chaos marks a timed-machine fault-injection verdict.
	Chaos bool
	// FaultSeed/FaultRates are the chaos fault schedule (zero otherwise).
	FaultSeed  int64
	FaultRates faults.Rates
}

// Key derives the canonical cache key of (program, options): the fixed-seed
// 128-bit murmur3 digest (internal/digest) of a canonical binary encoding.
// The program's name is deliberately excluded — it cannot change an outcome,
// and excluding it lets structurally identical submissions dedup across
// campaigns that label programs differently.
func Key(p *program.Program, o Options) digest.Sum {
	b := make([]byte, 0, 256)
	b = append(b, KeyVersion)
	b = appendProgram(b, p)
	b = append(b, 'M')
	b = binary.AppendUvarint(b, uint64(len(o.Machines)))
	for _, m := range o.Machines {
		b = binary.AppendUvarint(b, uint64(len(m)))
		b = append(b, m...)
	}
	b = append(b, 'O')
	b = binary.AppendUvarint(b, uint64(o.MaxStates))
	b = binary.AppendUvarint(b, uint64(o.MaxTraceOps))
	if o.Chaos {
		b = append(b, 'C')
		b = appendZigzag(b, o.FaultSeed)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.FaultRates.Drop))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.FaultRates.Dup))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.FaultRates.Delay))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(o.FaultRates.Reorder))
		b = binary.AppendUvarint(b, uint64(o.FaultRates.MaxDelay))
	}
	return digest.Sum128(b)
}

// appendProgram appends a canonical, prefix-free binary encoding of the
// program: thread count, each thread's instruction stream field by field,
// then the initial-memory table in ascending address order. Two programs
// encode identically iff they are structurally identical (name aside), which
// is exactly the equivalence the cache needs — the machines see structure,
// never names.
func appendProgram(b []byte, p *program.Program) []byte {
	b = append(b, 'P')
	b = binary.AppendUvarint(b, uint64(len(p.Threads)))
	for _, code := range p.Threads {
		b = binary.AppendUvarint(b, uint64(len(code)))
		for _, in := range code {
			b = append(b, byte(in.Op), byte(in.Rd), byte(in.Ra))
			if in.Src.IsReg {
				b = append(b, 1, byte(in.Src.Reg))
			} else {
				b = append(b, 0)
				b = appendZigzag(b, int64(in.Src.Imm))
			}
			b = binary.AppendUvarint(b, uint64(in.Addr))
			if in.UseAddrReg {
				b = append(b, 1, byte(in.AddrReg))
			} else {
				b = append(b, 0)
			}
			b = append(b, byte(in.RMW))
			b = binary.AppendUvarint(b, uint64(in.Target))
			b = appendZigzag(b, int64(in.Delay))
		}
	}
	b = append(b, 'I')
	b = binary.AppendUvarint(b, uint64(len(p.Init)))
	addrs := make([]mem.Addr, 0, len(p.Init))
	for a := range p.Init {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		b = binary.AppendUvarint(b, uint64(a))
		b = appendZigzag(b, int64(p.Init[a]))
	}
	return b
}

// appendZigzag appends a zigzag-varint encoding of v (the tracefmt signed
// convention).
func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}
