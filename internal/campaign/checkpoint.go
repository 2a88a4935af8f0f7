package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// CheckpointVersion names the checkpoint schema; a reader rejects versions
// it does not know rather than resuming from a misread snapshot.
const CheckpointVersion = 1

// CheckpointFile is the snapshot's name inside a campaign directory.
const CheckpointFile = "checkpoint.json"

// Checkpoint is a campaign's resumable state: the Spec it runs under, the
// next seed index to execute, and the partial report accumulated so far.
// Snapshots are written atomically (temp + rename), so a kill at any instant
// leaves either the previous checkpoint or the new one — never a torn file.
// Because per-seed verdicts are pure functions of the Spec, resuming from
// any checkpoint reproduces the same final report byte for byte.
type Checkpoint struct {
	Version int     `json:"version"`
	Spec    Spec    `json:"spec"`
	Next    int     `json:"next"`
	Report  *Report `json:"report"`
	// Summary carries the runtime counters across the interruption so the
	// final CLI summary accounts for the whole campaign, not just the last
	// resume leg. Not part of the report.
	CacheHits int64 `json:"cache_hits,omitempty"`
	Explored  int64 `json:"explored_states,omitempty"`
}

// WriteCheckpoint atomically snapshots c into dir (created if missing).
func WriteCheckpoint(dir string, c *Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return WriteJSONAtomic(filepath.Join(dir, CheckpointFile), c)
}

// LoadCheckpoint reads the snapshot in dir. It returns os.ErrNotExist
// (matchable with errors.Is) when no checkpoint has been written yet.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: corrupt checkpoint in %s: %w", dir, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint version %d in %s unsupported (want %d)", c.Version, dir, CheckpointVersion)
	}
	if c.Report == nil {
		return nil, fmt.Errorf("campaign: checkpoint in %s has no report", dir)
	}
	if c.Next < 0 || c.Next > c.Spec.Seeds || c.Next < len(c.Report.Programs) {
		return nil, fmt.Errorf("campaign: checkpoint in %s is inconsistent (next %d, %d programs, %d seeds)",
			dir, c.Next, len(c.Report.Programs), c.Spec.Seeds)
	}
	return &c, nil
}

// SameSpec reports whether two specs are identical, compared on their
// canonical JSON form so defaulted and explicit zero values agree.
func SameSpec(a, b Spec) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// ErrInterrupted reports that a Run stopped before completing every seed —
// a context cancellation (signal), a StopAfter test hook, or a wall-clock
// budget — after checkpointing. The partial report it returns alongside is
// valid and internally consistent; resuming completes it.
var ErrInterrupted = errors.New("campaign: interrupted")

// jsonMarshalIndent is the one indentation used for reports/checkpoints.
func jsonMarshalIndent(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}
