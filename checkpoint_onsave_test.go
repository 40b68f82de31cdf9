package apsp

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
)

// TestKeeperOnSaveReportsDurationAndSize checks the observability hook on
// the checkpoint Keeper: every persisted snapshot must report a positive
// wall-clock save duration and the exact on-disk container size.
func TestKeeperOnSaveReportsDurationAndSize(t *testing.T) {
	in := ckptInstance(23)
	path := t.TempDir() + "/run.ckpt"
	meta := &checkpoint.Meta{
		Alg: "core", N: in.G.N(), M: in.G.M(), Graph: checkpoint.Fingerprint(in.G),
		Sources: in.Sources, H: in.H,
	}
	var (
		calls int
		dur   time.Duration
		size  int64
	)
	k := &checkpoint.Keeper{Path: path, Meta: meta, OnSave: func(d time.Duration, b int64) {
		calls++
		dur, size = d, b
	}}
	_, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
		Engine: congest.Config{Checkpoint: &congest.CheckpointPolicy{AtRound: 3, Stop: true, Sink: k.Sink}}})
	if !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("want ErrCheckpointStop, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("OnSave fired %d times, want 1", calls)
	}
	if dur <= 0 {
		t.Fatalf("OnSave duration %v, want > 0", dur)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if size != fi.Size() {
		t.Fatalf("OnSave bytes %d != on-disk container size %d", size, fi.Size())
	}

	// A Keeper without a Path persists nothing and must not fire the hook.
	calls = 0
	k2 := &checkpoint.Keeper{OnSave: func(time.Duration, int64) { calls++ }}
	_, err = core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
		Engine: congest.Config{Checkpoint: &congest.CheckpointPolicy{AtRound: 3, Stop: true, Sink: k2.Sink}}})
	if !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("want ErrCheckpointStop, got %v", err)
	}
	if calls != 0 {
		t.Fatalf("pathless Keeper fired OnSave %d times", calls)
	}
}
