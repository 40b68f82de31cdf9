package oracle

import (
	"context"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestParallelBackendMatchesCongest is the oracle-level wiring gate: a
// snapshot bootstrapped through Backend "parallel" answers exactly like
// one computed on the simulated engine — same dist and hops bit for bit,
// and a parent tree the same walker accepts.
func TestParallelBackendMatchesCongest(t *testing.T) {
	g := graph.Random(28, 100, graph.GenOpts{Seed: 21, MaxW: 9, ZeroFrac: 0.2, Directed: true})
	engine, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline"})
	if err != nil {
		t.Fatalf("congest backend: %v", err)
	}
	par, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline", Backend: "parallel", Engine: congest.Config{Workers: 4}})
	if err != nil {
		t.Fatalf("parallel backend: %v", err)
	}
	if !strings.HasPrefix(par.Alg, "parallel/") {
		t.Fatalf("parallel backend labeled %q", par.Alg)
	}
	n := g.N()
	for c := range engine.Dist {
		if par.Dist[c] != engine.Dist[c] {
			t.Fatalf("dist(%d,%d): parallel %d, engine %d", c/n, c%n, par.Dist[c], engine.Dist[c])
		}
		if par.Hops[c] != engine.Hops[c] {
			t.Fatalf("hops(%d,%d): parallel %d, engine %d", c/n, c%n, par.Hops[c], engine.Hops[c])
		}
	}
	snap, err := Build(g, par, BuildOpts{})
	if err != nil {
		t.Fatalf("Build from parallel backend: %v", err)
	}
	if !snap.HasPaths() || !snap.HasHops() {
		t.Fatal("parallel snapshot should carry parents and hops")
	}
	for v := 0; v < g.N(); v++ {
		if snap.DistAt(3, v) >= graph.Inf {
			continue
		}
		if _, err := snap.Path(3, v); err != nil {
			t.Fatalf("Path(3,%d) through parallel snapshot: %v", v, err)
		}
	}
}

// TestParallelBackendRejectsEngineFeatures pins the contract that
// engine-only spec features fail loudly on the parallel backend instead
// of being silently ignored.
func TestParallelBackendRejectsEngineFeatures(t *testing.T) {
	g := graph.Random(12, 30, graph.GenOpts{Seed: 3, MaxW: 5, Directed: true})
	ctx := context.Background()
	cases := map[string]ComputeSpec{
		"hop-bounded alg": {Alg: "shortrange", Backend: "parallel"},
		"fault plan":      {Alg: "pipeline", Backend: "parallel", Plan: "delay=2"},
		"small h":         {Alg: "pipeline", Backend: "parallel", H: 3},
		"resume":          {Alg: "pipeline", Backend: "parallel", Resume: &congest.Snapshot{}},
		"unknown backend": {Alg: "pipeline", Backend: "gpu"},
	}
	for name, sp := range cases {
		if _, err := Compute(ctx, g, sp); err == nil {
			t.Errorf("%s: accepted by parallel backend", name)
		}
	}
	// h >= n-1 is explicitly fine: it is the unrestricted run.
	if _, err := Compute(ctx, g, ComputeSpec{Backend: "parallel", H: g.N() - 1}); err != nil {
		t.Fatalf("unrestricted h rejected: %v", err)
	}
	// -load is an engine snapshot: the gate sits in LoadCheckpoint.
	sp := ComputeSpec{Backend: "parallel"}
	if err := LoadCheckpoint("nonexistent.ckpt", g, &sp); err == nil || !strings.Contains(err.Error(), "congest backend") {
		t.Fatalf("LoadCheckpoint with parallel backend: %v", err)
	}
}
