package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

func TestReconstructPathUnrestricted(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(20, 60, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.3, Directed: true})
		res, err := APSP(g, graph.Delta(g))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] >= graph.Inf {
					continue
				}
				path, err := ReconstructPath(g, res, s, v)
				if err != nil {
					t.Fatalf("seed %d (%d,%d): %v", seed, s, v, err)
				}
				if path[0] != s || path[len(path)-1] != v {
					t.Fatalf("path endpoints %v", path)
				}
				w, err := pathWeight(g, path)
				if err != nil {
					t.Fatalf("pathWeight: %v", err)
				}
				if w != res.Dist[s][v] {
					t.Fatalf("path weight %d != dist %d", w, res.Dist[s][v])
				}
				if int64(len(path)-1) != res.Hops[s][v] {
					t.Fatalf("path hops %d != recorded %d", len(path)-1, res.Hops[s][v])
				}
			}
		}
	}
}

func TestReconstructPathHopBoundedMayFailGracefully(t *testing.T) {
	// The Figure-1 instance: v=3's recorded parent (node 1) carries a
	// different entry, so reconstruction must fail with a diagnostic, not
	// return a wrong path.
	g := graph.New(4, true)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(0, 2, 0)
	g.MustAddEdge(2, 1, 0)
	g.MustAddEdge(1, 3, 0)
	res, err := Run(g, Opts{Sources: []int{0}, H: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dist[0][3] != 5 {
		t.Fatalf("dist[0][3] = %d, want 5", res.Dist[0][3])
	}
	if _, err := ReconstructPath(g, res, 0, 3); err == nil {
		t.Fatal("expected reconstruction to detect the Figure-1 divergence")
	}
	// Node 1's own path is reconstructible (0→2→1).
	path, err := ReconstructPath(g, res, 0, 1)
	if err != nil {
		t.Fatalf("ReconstructPath(1): %v", err)
	}
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("path to 1 = %v, want [0 2 1]", path)
	}
}

func TestReconstructPathErrors(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 3})
	res, err := Run(g, Opts{Sources: []int{0}, H: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := ReconstructPath(g, res, 5, 0); err == nil {
		t.Fatal("bad source index accepted")
	}
	if _, err := ReconstructPath(g, res, 0, 99); err == nil {
		t.Fatal("bad node accepted")
	}
	// Unreachable: restrict hops so the far end is unreachable.
	res2, err := Run(g, Opts{Sources: []int{0}, H: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := ReconstructPath(g, res2, 0, 3); err == nil {
		t.Fatal("unreachable node accepted")
	}
}

// pathWeight sums the arc weights along path (using minimum parallel
// weights), returning an error if an arc is missing.
func pathWeight(g *graph.Graph, path []int) (int64, error) {
	var total int64
	for j := 0; j+1 < len(path); j++ {
		w, ok := g.Weight(path[j], path[j+1])
		if !ok {
			return 0, fmt.Errorf("core: no arc (%d,%d)", path[j], path[j+1])
		}
		total += w
	}
	return total, nil
}
