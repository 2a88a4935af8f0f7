package model

// Unit tests for the contract the partial-order reduction rests on: when two
// enabled steps are independent per the Info they carry, applying
// them in either order must land in key-identical states (and the second must
// stay enabled, under the same identity, after the first) — and every enabled
// step must be covered by its agent's declared future footprint. The POR and
// width sweeps in internal/explore pin outcome sets; these tests pin the
// per-machine declarations those sweeps rely on, so a broken footprint is
// reported as "machine X, state K, steps s1/s2" instead of a corpus-level
// outcome diff.

import (
	"fmt"
	"testing"

	"weakorder/internal/explore"
	"weakorder/internal/program"
)

// commuteFactories is the per-machine table the commutation tests sweep:
// every standard machine plus the broken fixtures (POR must be sound on those
// too, or the fuzzing pipeline could mask their violations).
func commuteFactories() []struct {
	name string
	mk   func(*program.Program) Machine
} {
	return []struct {
		name string
		mk   func(*program.Program) Machine
	}{
		{"SC", func(p *program.Program) Machine { return NewSC(p) }},
		{"bus+writebuffer", func(p *program.Program) Machine { return NewWriteBuffer(p, "") }},
		{"network-nocache", func(p *program.Program) Machine { return NewNetwork(p) }},
		{"network+cache-nonatomic", func(p *program.Program) Machine { return NewNonAtomic(p) }},
		{"WO-def1", func(p *program.Program) Machine { return NewWODef1(p) }},
		{"WO-def2", func(p *program.Program) Machine { return NewWODef2(p) }},
		{"WO-def2-drf1", func(p *program.Program) Machine { return NewWODef2DRF1(p) }},
		{"WO-def2-noreserve", func(p *program.Program) Machine { return NewWODef2NoReserve(p) }},
		{"RP3-fence", func(p *program.Program) Machine { return NewFence(p) }},
		{"tso", func(p *program.Program) Machine { return NewTSO(p) }},
		{"pso", func(p *program.Program) Machine { return NewPSO(p) }},
		{"rmo", func(p *program.Program) Machine { return NewRMO(p) }},
	}
}

// commutePrograms mixes the access kinds whose step classifications differ:
// plain data races (drain/deliver steps live here), a release fence, sync
// reads, and an RMW pair contending on one location.
func commutePrograms() []*program.Program {
	sb := program.MustParse(`
name: sb
init: x=0 y=0
thread:
    st x, 1
    ld r0, y
thread:
    st y, 1
    ld r1, x
`).Program
	sync := program.MustParse(`
name: sb-sync
init: x=0 y=0
thread:
    sync.st x, 1
    sync.ld r0, y
thread:
    sync.st y, 1
    sync.ld r1, x
`).Program
	// Sync writes followed by data loads: the shape that caught RMO's fence
	// steps failing to commute before explore.Info grew the Fence axis.
	syncData := program.MustParse(`
name: sync-sb-data
init: x=0 y=0
thread:
    sync.st x, 1
    ld r0, y
thread:
    sync.st y, 1
    ld r1, x
`).Program
	tas := program.MustParse(`
name: tas-pair
init: l=0 x=0
thread:
    tas r0, l, 1
    st x, 1
thread:
    tas r0, l, 1
    ld r1, x
`).Program
	return []*program.Program{sb, mpData(), mpRelease(), sync, syncData, tas}
}

// forEachReachable drives a bounded breadth-first enumeration of the
// machine's reachable states (KeyState granularity) and calls visit on each.
func forEachReachable(t *testing.T, m Machine, limit int, visit func(m Machine)) {
	t.Helper()
	seen := map[string]bool{Key(m, KeyState): true}
	queue := []Machine{m}
	for len(queue) > 0 && len(seen) < limit {
		cur := queue[0]
		queue = queue[1:]
		visit(cur)
		for _, tr := range cur.Transitions(nil) {
			next := cur.CloneInto(nil)
			if err := next.Apply(tr); err != nil {
				t.Fatalf("%s: apply %v: %v", cur.Name(), tr, err)
			}
			k := Key(next, KeyState)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
}

// applyPair clones m, applies first then second, and returns the pair of
// canonical keys at the given mode.
func applyPair(t *testing.T, m Machine, first, second explore.Step, mode KeyMode) string {
	t.Helper()
	c := m.CloneInto(nil)
	if err := c.Apply(first); err != nil {
		t.Fatalf("%s: apply %v: %v", m.Name(), first, err)
	}
	found := false
	for _, tr := range c.Transitions(nil) {
		if tr == second {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("%s: independent step %v disabled %v (enabledness must be preserved)", m.Name(), first, second)
	}
	if err := c.Apply(second); err != nil {
		t.Fatalf("%s: apply %v after %v: %v", m.Name(), second, first, err)
	}
	// Thread snapshots embed the pending-request cache flag, which depends on
	// when Transitions was last computed rather than on machine state. One
	// more Transitions call brings both application orders to the same
	// lifecycle point, so the keys compare real state only.
	c.Transitions(nil)
	return Key(c, mode)
}

// TestFootprintIndependenceCommutes checks, machine by machine, the promise
// each step's Info makes to the kernel: at every reachable state of the table
// programs, each pair of enabled transitions that explore.Independent accepts
// must commute exactly — either application order reaches the same canonical
// key — at the key mode matching the independence flavor (sync order
// invisible for KeyState/KeyResult, visible for KeyExecution).
func TestFootprintIndependenceCommutes(t *testing.T) {
	const stateLimit = 800
	for _, f := range commuteFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			pairs := 0
			for _, p := range commutePrograms() {
				forEachReachable(t, f.mk(p), stateLimit, func(m Machine) {
					trs := m.Transitions(nil)
					steps := make([]explore.Step, len(trs))
					for i, tr := range trs {
						steps[i] = explore.Step{Info: tr.Info}
					}
					for i := 0; i < len(trs); i++ {
						for j := i + 1; j < len(trs); j++ {
							for _, mode := range []KeyMode{KeyState, KeyResult, KeyExecution} {
								if !explore.Independent(steps[i], steps[j], mode >= KeyExecution) {
									continue
								}
								ab := applyPair(t, m, trs[i], trs[j], mode)
								ba := applyPair(t, m, trs[j], trs[i], mode)
								if ab != ba {
									t.Fatalf("%s on %s: steps %v (%+v) and %v (%+v) declared independent but do not commute at mode %d:\n %x\n %x",
										f.name, p.Name, trs[i], steps[i].Info, trs[j], steps[j].Info, mode, ab, ba)
								}
								pairs++
							}
						}
					}
				})
			}
			if pairs == 0 {
				t.Fatalf("%s: no independent pair was ever exercised — the sweep is vacuous", f.name)
			}
		})
	}
}

// TestFootprintsCoverEnabledSteps checks the other half of the contract: the
// per-agent future footprint each machine declares must cover every step the
// agent can currently take — a step reading or writing a location outside the
// declared footprint would let the persistent-set construction drop a
// dependent transition.
func TestFootprintsCoverEnabledSteps(t *testing.T) {
	const stateLimit = 800
	for _, f := range commuteFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range commutePrograms() {
				forEachReachable(t, f.mk(p), stateLimit, func(m Machine) {
					fps := m.Footprints(nil)
					for _, tr := range m.Transitions(nil) {
						info := tr.Info
						if info.Agent < 0 || info.Agent >= len(fps) {
							t.Fatalf("%s on %s: step %v names agent %d outside the %d declared footprints",
								f.name, p.Name, tr, info.Agent, len(fps))
						}
						fp := fps[info.Agent].Future
						if err := covers(fp, info); err != nil {
							t.Fatalf("%s on %s: step %v (%+v) escapes agent %d's future footprint %+v: %v",
								f.name, p.Name, tr, info, info.Agent, fp, err)
						}
					}
				})
			}
		})
	}
}

// covers reports whether a declared footprint over-approximates one concrete
// step classification.
func covers(fp explore.Footprint, info explore.Info) error {
	if info.Opaque {
		if !fp.Opaque {
			return fmt.Errorf("opaque step but Opaque unset")
		}
		return nil
	}
	if info.Op.IsSync() && !fp.Sync {
		return fmt.Errorf("sync step but Sync unset")
	}
	if info.Fence && !fp.Fence {
		return fmt.Errorf("fence step but Fence unset")
	}
	if fp.Wild {
		return nil
	}
	if info.AddrBit == 0 {
		// The address universe overflowed the dense indexing; the machine must
		// have degraded the footprint to Wild (handled above) for soundness.
		return fmt.Errorf("step has no address bit but footprint is not Wild")
	}
	if info.Op.Reads() && fp.Reads&info.AddrBit == 0 {
		return fmt.Errorf("read of x%d not in Reads", info.Addr)
	}
	if info.Op.Writes() && fp.Writes&info.AddrBit == 0 {
		return fmt.Errorf("write of x%d not in Writes", info.Addr)
	}
	return nil
}
