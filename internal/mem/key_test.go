package mem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// fmtKey is the fmt-based rendering Result.Key must reproduce byte for byte:
// outcome sets, their Keys() order and every golden table are built on it.
func fmtKey(r Result) string {
	type rk struct {
		k ReadKey
		v Value
	}
	var rs []rk
	for k, v := range r.Reads {
		rs = append(rs, rk{k, v})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].k.Proc != rs[j].k.Proc {
			return rs[i].k.Proc < rs[j].k.Proc
		}
		return rs[i].k.Index < rs[j].k.Index
	})
	type fk struct {
		a Addr
		v Value
	}
	var fs []fk
	for a, v := range r.Final {
		fs = append(fs, fk{a, v})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].a < fs[j].a })
	var b strings.Builder
	for _, x := range rs {
		fmt.Fprintf(&b, "P%d.%d=%d;", x.k.Proc, x.k.Index, x.v)
	}
	b.WriteByte('|')
	for _, x := range fs {
		fmt.Fprintf(&b, "x%d=%d;", x.a, x.v)
	}
	return b.String()
}

func TestResultKeyMatchesFmt(t *testing.T) {
	cases := []struct {
		name string
		r    Result
	}{
		{"empty", Result{}},
		{"no reads", Result{Final: map[Addr]Value{0: 0, 1: 7}}},
		{"negative values", Result{
			Reads: map[ReadKey]Value{{0, 0}: -1, {1, 0}: -42},
			Final: map[Addr]Value{0: -3, 2: math.MinInt64},
		}},
		{"multi-digit processors and indices", Result{
			Reads: map[ReadKey]Value{{12, 105}: 3, {12, 7}: 4, {3, 10}: 5, {100, 0}: math.MaxInt64},
			Final: map[Addr]Value{10: 1, 9: 2},
		}},
		{"computed addresses", Result{
			// Register-indexed accesses land above (and far from) the
			// program's static universe {0, 1}.
			Reads: map[ReadKey]Value{{0, 0}: 1},
			Final: map[Addr]Value{0: 1, 1: 0, 1 << 20: -9, math.MaxUint32: 6, 2: 0},
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := Result{Reads: make(map[ReadKey]Value), Final: make(map[Addr]Value)}
		for j := rng.Intn(12); j > 0; j-- {
			r.Reads[ReadKey{Proc: ProcID(rng.Intn(20)), Index: rng.Intn(300)}] = Value(rng.Int63n(2001) - 1000)
		}
		for j := rng.Intn(8); j > 0; j-- {
			r.Final[Addr(rng.Uint32()>>uint(rng.Intn(32)))] = Value(rng.Int63() - rng.Int63())
		}
		cases = append(cases, struct {
			name string
			r    Result
		}{fmt.Sprintf("random-%d", i), r})
	}
	for _, c := range cases {
		if got, want := c.r.Key(), fmtKey(c.r); got != want {
			t.Errorf("%s: Key() = %q, fmt rendering %q", c.name, got, want)
		}
	}
}
