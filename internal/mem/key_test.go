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
		if got, err := ParseResultKey(c.r.Key()); err != nil || !got.Equal(c.r) {
			t.Errorf("%s: ParseResultKey(%q) = %v, %v; want %v", c.name, c.r.Key(), got, err, c.r)
		}
	}
}

// TestParseResultKeyRejects pins the decoder's strictness: every string
// below differs from any key Result.Key renders, so ParseResultKey must
// refuse it.
func TestParseResultKeyRejects(t *testing.T) {
	for _, key := range []string{
		"",                           // no separator
		"P0.0=1;",                    // no separator
		"P0.0=1;||",                  // a second separator
		"P0.0=1|",                    // unterminated read
		"|x0=1",                      // unterminated location
		"x0=1;|",                     // a location among the reads
		"|P0.0=1;",                   // a read among the locations
		"P0.0=;|",                    // no value
		"P0=1;|",                     // no index
		"P0.0.0=1;|",                 // two indices
		"P0.0=1=2;|",                 // two values
		"P1.0=1;P0.0=1;|",            // reads out of processor order
		"P0.1=1;P0.0=1;|",            // reads out of index order
		"P0.0=1;P0.0=1;|",            // a repeated read
		"|x1=0;x0=0;",                // locations out of order
		"|x0=0;x0=0;",                // a repeated location
		"P00.0=1;|",                  // a leading zero
		"P0.0=+1;|",                  // a sign on a value
		"P0.0=-0;|",                  // negative zero
		"P0.0=01;|",                  // a leading zero on a value
		"P-1.0=1;|",                  // a negative processor
		"P0.-1=1;|",                  // a negative index
		"|x-1=0;",                    // a negative address
		"|x4294967296=0;",            // an address past 32 bits
		"P0.0=9223372036854775808;|", // a value past int64
		"P 0.0=1;|",                  // a space
		"P0.0=1_0;|",                 // an underscore
	} {
		if r, err := ParseResultKey(key); err == nil {
			t.Errorf("ParseResultKey(%q) = %v, want an error", key, r)
		}
	}
}
