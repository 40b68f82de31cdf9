package oracle

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// writeMidRunCheckpoint runs the pipeline until the engine's checkpoint
// drill stops it at a mid-run round and returns the snapshot file — the
// exact artifact `apsprun -checkpoint-stop` leaves behind.
func writeMidRunCheckpoint(t *testing.T, g *graph.Graph, sources []int, atRound int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	meta := &checkpoint.Meta{
		Alg: "pipeline", N: g.N(), M: g.M(), Graph: checkpoint.Fingerprint(g),
		Sources: sources, H: 0,
	}
	keeper := &checkpoint.Keeper{Path: path, Meta: meta}
	pol := &congest.CheckpointPolicy{AtRound: atRound, Sink: keeper.Sink}
	_, err := core.Run(g, core.Opts{Sources: sources, H: g.N() - 1, Engine: congest.Config{Checkpoint: pol}})
	if !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("checkpoint drill ended with %v, want ErrCheckpointStop", err)
	}
	return path
}

// TestCheckpointToOracleHandoff is the satellite gate for the
// apsprun → apspd pipeline: a checkpoint written mid-run loads into a
// ComputeSpec, the resumed computation completes, and the snapshot built
// from it serves distances identical to an uninterrupted run (resume is
// bit-exact, so so is the oracle).
func TestCheckpointToOracleHandoff(t *testing.T) {
	g := graph.Random(24, 80, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 13, Directed: true})
	sources := []int{0, 5, 11, 19}
	path := writeMidRunCheckpoint(t, g, sources, 6)

	// The spec's Alg is adopted from the checkpoint metadata; H stays the
	// raw flag value the metadata recorded (0 = default).
	sp := ComputeSpec{Sources: sources}
	if err := LoadCheckpoint(path, g, &sp); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if sp.Alg != "pipeline" || sp.Resume == nil {
		t.Fatalf("spec after load: alg=%q resume=%v", sp.Alg, sp.Resume != nil)
	}
	resumed, err := Compute(context.Background(), g, sp)
	if err != nil {
		t.Fatalf("resumed Compute: %v", err)
	}
	fresh, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline", Sources: sources})
	if err != nil {
		t.Fatalf("fresh Compute: %v", err)
	}
	snap, err := Build(g, resumed, BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if snap.Fingerprint() != checkpoint.Fingerprint(g) {
		t.Fatal("fingerprint not carried into snapshot")
	}
	for i := range sources {
		for v := 0; v < g.N(); v++ {
			if snap.DistAt(i, v) != fresh.Dist[i*g.N()+v] {
				t.Fatalf("resumed oracle dist(%d,%d) = %d, uninterrupted %d",
					i, v, snap.DistAt(i, v), fresh.Dist[i*g.N()+v])
			}
			if snap.parentAt(i, v) != int(fresh.Parent[i*g.N()+v]) {
				t.Fatalf("resumed oracle parent(%d,%d) = %d, uninterrupted %d",
					i, v, snap.parentAt(i, v), fresh.Parent[i*g.N()+v])
			}
		}
	}
}

// TestLoadCheckpointValidation: a checkpoint must refuse to resume against
// the wrong graph, sources, algorithm, or crash-scripted state.
func TestLoadCheckpointValidation(t *testing.T) {
	g := graph.Random(20, 60, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 17, Directed: true})
	sources := []int{0, 4, 9}
	path := writeMidRunCheckpoint(t, g, sources, 4)

	t.Run("wrong graph", func(t *testing.T) {
		other := graph.Random(20, 60, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 18, Directed: true})
		sp := ComputeSpec{Sources: sources}
		if err := LoadCheckpoint(path, other, &sp); err == nil || !strings.Contains(err.Error(), "graph mismatch") {
			t.Fatalf("wrong graph accepted: %v", err)
		}
	})
	t.Run("wrong sources", func(t *testing.T) {
		sp := ComputeSpec{Sources: []int{0, 4}}
		if err := LoadCheckpoint(path, g, &sp); err == nil || !strings.Contains(err.Error(), "source") {
			t.Fatalf("wrong sources accepted: %v", err)
		}
	})
	t.Run("wrong alg", func(t *testing.T) {
		sp := ComputeSpec{Alg: "bellman", Sources: sources}
		if err := LoadCheckpoint(path, g, &sp); err == nil || !strings.Contains(err.Error(), "-alg") {
			t.Fatalf("wrong alg accepted: %v", err)
		}
	})
	t.Run("wrong plan", func(t *testing.T) {
		sp := ComputeSpec{Sources: sources, Plan: "delay=2,seed=5"}
		if err := LoadCheckpoint(path, g, &sp); err == nil || !strings.Contains(err.Error(), "plan") {
			t.Fatalf("wrong fault plan accepted: %v", err)
		}
	})
	t.Run("crash-scripted checkpoint rejected", func(t *testing.T) {
		meta, snap, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		meta.Disarmed = []int{0}
		tainted := filepath.Join(t.TempDir(), "crash.ckpt")
		if err := checkpoint.Save(tainted, meta, snap); err != nil {
			t.Fatal(err)
		}
		sp := ComputeSpec{Sources: sources}
		if err := LoadCheckpoint(tainted, g, &sp); err == nil || !strings.Contains(err.Error(), "crash") {
			t.Fatalf("crash-scripted checkpoint accepted: %v", err)
		}
	})
}

// TestComputeUnderFaults: a fault plan changes the physical wire, never
// the served answers — the oracle built under adversarial delivery equals
// the fault-free one.
func TestComputeUnderFaults(t *testing.T) {
	g := graph.Random(16, 48, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 23, Directed: true})
	sources := []int{0, 7}
	clean, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline", Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline", Sources: sources,
		Plan: "delay=2,drop=0.2,dup=0.1", FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for c := range clean.Dist {
		if clean.Dist[c] != faulty.Dist[c] {
			t.Fatalf("faults changed dist(%d,%d): %d vs %d", c/g.N(), c%g.N(), clean.Dist[c], faulty.Dist[c])
		}
	}
}
