package core

import (
	"fmt"
	"sort"
	"strings"

	"weakorder/internal/mem"
)

// OutcomeSet is the set of distinct results a machine can produce for a
// program, held as their result keys (mem.Result.Key): the key determines the
// Result, and answering containment needs nothing else. Result decodes a
// member where something reads one.
type OutcomeSet map[string]struct{}

// Add inserts a result.
func (s OutcomeSet) Add(r mem.Result) { s[r.Key()] = struct{}{} }

// Contains reports whether the set holds the result.
func (s OutcomeSet) Contains(r mem.Result) bool {
	_, ok := s[r.Key()]
	return ok
}

// Keys returns the sorted result keys, for deterministic reporting.
func (s OutcomeSet) Keys() []string {
	ks := make([]string, 0, len(s))
	for k := range s {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Result decodes the Result of one of the set's keys (mem.ParseResultKey).
// It panics when key is not in the set or is not a result key, which no key
// that Add or an explorer stores can be.
func (s OutcomeSet) Result(key string) mem.Result {
	if _, ok := s[key]; !ok {
		panic(fmt.Sprintf("core: outcome %q is not in the set", key))
	}
	r, err := mem.ParseResultKey(key)
	if err != nil {
		panic(fmt.Sprintf("core: outcome set member: %v", err))
	}
	return r
}

// ContractReport records the Definition-2 check for one program on one
// hardware model: hardware is weakly ordered w.r.t. a synchronization model
// iff it appears sequentially consistent to all software obeying the model.
// For a program that obeys the model, that means every outcome the hardware
// can produce must be an outcome some sequentially consistent execution can
// produce.
type ContractReport struct {
	Program  string
	Hardware string
	// ObeysModel is whether the program obeys the synchronization model
	// (Definition 3). When false, Definition 2 promises nothing and Extra
	// outcomes are informational only.
	ObeysModel bool
	// SCOutcomes / HWOutcomes are the result-set sizes.
	SCOutcomes, HWOutcomes int
	// Extra lists hardware outcomes outside the SC set, in key order.
	Extra []mem.Result
}

// Honored reports whether the hardware honored its side of the contract on
// this program: vacuously true for programs that violate the model.
func (c *ContractReport) Honored() bool {
	return !c.ObeysModel || len(c.Extra) == 0
}

// String implements fmt.Stringer.
func (c *ContractReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: ", c.Program, c.Hardware)
	switch {
	case !c.ObeysModel && len(c.Extra) == 0:
		fmt.Fprintf(&b, "program violates model (contract vacuous); %d hw outcomes all within %d SC outcomes anyway", c.HWOutcomes, c.SCOutcomes)
	case !c.ObeysModel:
		fmt.Fprintf(&b, "program violates model (contract vacuous); %d non-SC outcome(s) observed", len(c.Extra))
	case len(c.Extra) == 0:
		fmt.Fprintf(&b, "contract honored: %d hw outcomes ⊆ %d SC outcomes", c.HWOutcomes, c.SCOutcomes)
	default:
		fmt.Fprintf(&b, "CONTRACT VIOLATED: %d outcome(s) outside the SC set", len(c.Extra))
	}
	return b.String()
}

// CheckContract performs the Definition-2 containment check given the SC
// outcome set, the hardware outcome set, and whether the program obeys the
// synchronization model. Only the hardware keys outside the SC set are sorted
// and decoded.
func CheckContract(progName, hwName string, obeysModel bool, sc, hw OutcomeSet) *ContractReport {
	rep := &ContractReport{
		Program:    progName,
		Hardware:   hwName,
		ObeysModel: obeysModel,
		SCOutcomes: len(sc),
		HWOutcomes: len(hw),
	}
	var extra []string
	for k := range hw {
		if _, ok := sc[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		rep.Extra = append(rep.Extra, hw.Result(k))
	}
	return rep
}
