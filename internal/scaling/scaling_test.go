package scaling

import (
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
)

// TestDifferentialSweep sweeps small instances of the scaling extension
// against Dijkstra, including large weights relative to the graph size.
func TestDifferentialSweep(t *testing.T) {
	difftest.Search(t, difftest.Space{SeedsPerSize: 10, MaxK: 2, MaxW: 300, ZeroFrac: 0.3}, func(in difftest.Instance) error {
		res, err := Run(in.G, Opts{Sources: in.Sources})
		if err != nil {
			return err
		}
		return difftest.SSSPOracle(in, res.Dist)
	})
}

func TestScalingAPSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(20, 60, graph.GenOpts{Seed: seed, MaxW: 50, ZeroFrac: 0.3, Directed: seed%2 == 0})
		res, err := Run(g, Opts{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.APSP(g)
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] != want[s][v] {
					t.Fatalf("seed %d: dist[%d][%d] = %d, want %d", seed, s, v, res.Dist[s][v], want[s][v])
				}
			}
		}
	}
}

func TestScalingKSSP(t *testing.T) {
	g := graph.Random(24, 80, graph.GenOpts{Seed: 9, MaxW: 1000, ZeroFrac: 0.25, Directed: true})
	sources := []int{0, 8, 16}
	res, err := Run(g, Opts{Sources: sources})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, s := range sources {
		want := graph.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[i][v] != want[v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[i][v], want[v])
			}
		}
	}
	if res.Bits != 10 { // 1000 needs 10 bits
		t.Fatalf("Bits = %d, want 10", res.Bits)
	}
	if len(res.PhaseRounds) != res.Bits+1 {
		t.Fatalf("phases recorded %d, want %d", len(res.PhaseRounds), res.Bits+1)
	}
}

func TestScalingZeroWeights(t *testing.T) {
	// All-zero weights: one bootstrap-like phase must still resolve
	// reachability.
	g := graph.Random(15, 40, graph.GenOpts{Seed: 2, MaxW: 5, Directed: true}).
		Transform(func(int64) int64 { return 0 })
	res, err := Run(g, Opts{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := graph.APSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[s][v], want[s][v])
			}
		}
	}
}

func TestScalingBeatsPipelineAtLargeWeights(t *testing.T) {
	// The point of the extension: phase distances are ≤ n−1 regardless of
	// W, so rounds are W-insensitive, while Theorem I.1(ii) pays 2n√Δ.
	g := graph.Random(20, 60, graph.GenOpts{Seed: 4, MinW: 500, MaxW: 4000, Directed: true})
	delta := graph.Delta(g)
	sc, err := Run(g, Opts{})
	if err != nil {
		t.Fatalf("scaling: %v", err)
	}
	a1, err := core.APSP(g, delta)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	want := graph.APSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if sc.Dist[s][v] != want[s][v] || a1.Dist[s][v] != want[s][v] {
				t.Fatalf("wrong distance at (%d,%d)", s, v)
			}
		}
	}
	if sc.Stats.Rounds >= a1.Stats.Rounds {
		t.Fatalf("scaling (%d rounds) did not beat the Δ-sensitive pipeline (%d rounds) at Δ=%d",
			sc.Stats.Rounds, a1.Stats.Rounds, delta)
	}
	t.Logf("Δ=%d: scaling %d rounds (%d phases) vs pipelined %d rounds",
		delta, sc.Stats.Rounds, sc.Bits+1, a1.Stats.Rounds)
}

func TestScalingValidation(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 3})
	if _, err := Run(g, Opts{Sources: []int{}}); err == nil {
		t.Fatal("empty sources accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{9}}); err == nil {
		t.Fatal("bad source accepted")
	}
}
