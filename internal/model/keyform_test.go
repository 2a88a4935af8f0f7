package model_test

import (
	"fmt"
	"testing"

	"weakorder/internal/digest"
	"weakorder/internal/model"
)

// keyPairs maps, for one serial exploration, the digest of every state's
// full key to the digest of its digest-form key.
type keyPairs struct {
	full     []byte // the full key, rendered into one buffer
	toDigest map[digest.Sum]digest.Sum
	shorter  int // digest-form keys shorter than their full keys
	err      error
}

func newKeyPairs() *keyPairs { return &keyPairs{toDigest: make(map[digest.Sum]digest.Sum)} }

// add renders m's full key at mode and records it with the digest-form key
// the explorer asked for, keeping the first state whose full key already
// has another digest-form key: a digest that depends on the path that
// reached the state.
func (k *keyPairs) add(m model.Machine, mode model.KeyMode, key []byte) {
	k.full = m.AppendKey(mode|model.KeyFull, k.full[:0])
	if len(key) < len(k.full) {
		k.shorter++
	}
	f, d := digest.Sum128(k.full), digest.Sum128(key)
	if d0, ok := k.toDigest[f]; ok && d0 != d && k.err == nil {
		k.err = fmt.Errorf("full key %q has two digest-form keys, one of them %q", k.full, key)
	}
	k.toDigest[f] = d
}

// check returns the first break of the bijection: a path-dependent digest
// (see add), or a digest-form key that stands for two full keys, a state the
// digest form confuses with another.
func (k *keyPairs) check() error {
	if k.err != nil {
		return k.err
	}
	seen := make(map[digest.Sum]bool, len(k.toDigest))
	for _, d := range k.toDigest {
		if seen[d] {
			return fmt.Errorf("digest-form key with digest %x stands for two full keys", d)
		}
		seen[d] = true
	}
	return nil
}

// keyRecorder is a Machine that records, each time the explorer keys it, the
// pair of its digest-form and full keys. The keys it returns are the
// machine's own, so an exploration of it visits what one of the machine
// does. Its clones share one keyPairs without a lock, so it serves serial
// explorations only.
type keyRecorder struct {
	model.Machine
	pairs *keyPairs
}

func (r *keyRecorder) CloneInto(dst model.Machine) model.Machine {
	d, _ := dst.(*keyRecorder)
	if d == nil {
		d = &keyRecorder{}
	}
	d.Machine, d.pairs = r.Machine.CloneInto(d.Machine), r.pairs
	return d
}

func (r *keyRecorder) AppendKey(mode model.KeyMode, key []byte) []byte {
	n := len(key)
	key = r.Machine.AppendKey(mode, key)
	r.pairs.add(r.Machine, mode, key[n:])
	return key
}

// TestDigestKeysBijectFullKeys is the differential gate of the digest-form
// state keys: at every state an exploration keys, the key it deduplicates on
// (one digest per history chain, the registers a thread writes) and the fully
// rendered key (every read and sync, every register) must be in bijection.
// It covers the explorations of TestStateSpaceFingerprint, which it shares:
// every machine, standard and broken, at KeyState and KeyResult, plus the SC
// machine at KeyExecution, each with POR on and off, on the litmus corpus and
// 64 campaign programs.
func TestDigestKeysBijectFullKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every machine on 80 programs")
	}
	run := fingerprintMatrix()
	if run.keys != nil {
		t.Fatal(run.keys)
	}
	if run.shorter == 0 {
		t.Fatal("no digest-form key was shorter than its full key: the explorations did not key in digest form")
	}
}
