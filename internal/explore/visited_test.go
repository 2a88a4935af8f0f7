package explore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"weakorder/internal/digest"
)

// mapVisited is a digest-keyed visited store on a Go map from digest to
// stored skip mask, with visitedSet.visit's transition spelled out over it:
// the oracle of visitedTable.
type mapVisited map[digest.Sum]uint64

func (m mapVisited) visit(sum digest.Sum, all, skip uint64, reserve func() bool) (todo uint64, isNew, over bool) {
	old, seen := m[sum]
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
	m[sum] = old
	return todo, isNew, false
}

// TestFlatVisitedMatchesMap drives the flat table and the map oracle with
// the same random sequences of (digest, all, skip) visits and asserts the
// same (todo, isNew, over) for every visit and the same size after it. One
// pooled table serves every run, reset between runs, so it grows across
// them. The digests are drawn from pools in which many share their low
// word's low 40 bits, and so their first probe slot at any table size, and
// some share the whole low word, so probes run long and compare both words.
// Budgets range below and above the states a run reaches, so they trip.
// After every twentieth run the generation is set to its maximum, so the
// reset wraps it; the run after the first wrap revisits the digests of the
// run before it, which the wrap must have cleared.
func TestFlatVisitedMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomSum := func() digest.Sum {
		var s digest.Sum
		lo, hi := rng.Uint64(), rng.Uint64()
		switch rng.Intn(3) {
		case 0: // shares its first probe slot with a quarter of the pool
			lo = lo<<40 | uint64(rng.Intn(4))
		case 1: // shares its whole low word with a quarter of the pool
			lo = uint64(rng.Intn(4))
		}
		binary.LittleEndian.PutUint64(s[:8], lo)
		binary.LittleEndian.PutUint64(s[8:], hi)
		return s
	}
	v := visitedSet{table: tablePool.New().(*visitedTable)}
	var pool []digest.Sum
	for run := 0; run < 100; run++ {
		if run != 1 { // run 1 revisits run 0's digests across the first wrap
			pool = pool[:0]
			for n := 1 + rng.Intn(1500); len(pool) < n; {
				pool = append(pool, randomSum())
			}
		}
		budget := 1 + rng.Intn(2*len(pool))
		oracle := mapVisited{}
		reserveTable := func() bool { return v.len() < budget }
		reserveOracle := func() bool { return len(oracle) < budget }
		for i := 0; i < 3*len(pool); i++ {
			sum := pool[rng.Intn(len(pool))]
			all := maskAll(1 + rng.Intn(64))
			skip := rng.Uint64() & rng.Uint64() & all
			todo, isNew, over := v.visit(nil, sum, all, skip, reserveTable)
			wTodo, wIsNew, wOver := oracle.visit(sum, all, skip, reserveOracle)
			if todo != wTodo || isNew != wIsNew || over != wOver {
				t.Fatalf("run %d (budget %d), visit %d of %x: table (%x, %v, %v), map (%x, %v, %v)",
					run, budget, i, sum, todo, isNew, over, wTodo, wIsNew, wOver)
			}
			if v.len() != len(oracle) {
				t.Fatalf("run %d, visit %d: table holds %d states, map %d", run, i, v.len(), len(oracle))
			}
		}
		if run%20 == 0 {
			v.table.gen = math.MaxUint32
		}
		v.table.reset()
		if v.len() != 0 {
			t.Fatalf("run %d: reset left %d states", run, v.len())
		}
	}
	if len(v.table.slots) < 2048 {
		t.Fatalf("the runs grew the table to %d slots only", len(v.table.slots))
	}
}
