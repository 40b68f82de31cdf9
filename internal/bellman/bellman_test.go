package bellman

import (
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

func TestHHopMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(25, 80, graph.GenOpts{Seed: seed, MaxW: 7, ZeroFrac: 0.3, Directed: seed%2 == 0})
		sources := []int{0, 3, 11, 17}
		for _, h := range []int{1, 3, 6} {
			res, err := Run(g, Opts{Sources: sources, H: h})
			if err != nil {
				t.Fatalf("seed %d h %d: %v", seed, h, err)
			}
			for i, s := range sources {
				wantD, wantL := graph.HHopDistHops(g, s, h)
				for v := 0; v < g.N(); v++ {
					if res.Dist[i][v] != wantD[v] || res.Hops[i][v] != int64(wantL[v]) {
						t.Fatalf("seed %d h %d: (d,l)[%d][%d] = (%d,%d), want (%d,%d)",
							seed, h, s, v, res.Dist[i][v], res.Hops[i][v], wantD[v], wantL[v])
					}
				}
			}
		}
	}
}

func TestHopBoundIsExact(t *testing.T) {
	// Zero-weight path: with hop budget h only the first h nodes are
	// reachable. Within-block leakage would reach further; this guards the
	// snapshot semantics.
	g := graph.Path(10, graph.GenOpts{Seed: 1, MaxW: 1}).Transform(func(int64) int64 { return 0 })
	res, err := Run(g, Opts{Sources: []int{0}, H: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := 0; v < 10; v++ {
		want := graph.Inf
		if v <= 4 {
			want = 0
		}
		if res.Dist[0][v] != want {
			t.Fatalf("dist[0][%d] = %d, want %d", v, res.Dist[0][v], want)
		}
	}
}

func TestHopBoundExactMultiSource(t *testing.T) {
	// Multiple sources exercise the intra-block slots; hop exactness must
	// survive the round-robin interleaving.
	g := graph.Path(12, graph.GenOpts{Seed: 1, MaxW: 1}).Transform(func(int64) int64 { return 0 })
	sources := []int{0, 6}
	res, err := Run(g, Opts{Sources: sources, H: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := graph.KSourceHHop(g, sources, 3)
	for i := range sources {
		for v := 0; v < g.N(); v++ {
			if res.Dist[i][v] != want[i][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", sources[i], v, res.Dist[i][v], want[i][v])
			}
		}
	}
}

func TestRoundBoundHK(t *testing.T) {
	g := graph.Random(30, 90, graph.GenOpts{Seed: 4, MaxW: 5, ZeroFrac: 0.2, Directed: true})
	sources := []int{0, 1, 2, 3, 4}
	h := 8
	res, err := Run(g, Opts{Sources: sources, H: h})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Rounds > h*len(sources) {
		t.Fatalf("rounds = %d, want ≤ h·k = %d", res.Stats.Rounds, h*len(sources))
	}
}

func TestFullSSSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(35, 100, graph.GenOpts{Seed: seed, MaxW: 9, ZeroFrac: 0.25, Directed: true})
		res, err := FullSSSP(g, 2, congest.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.Dijkstra(g, 2)
		for v := 0; v < g.N(); v++ {
			if res.Dist[0][v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, want %d", seed, v, res.Dist[0][v], want[v])
			}
		}
	}
}

func TestFullReverseSSSP(t *testing.T) {
	g := graph.Random(30, 90, graph.GenOpts{Seed: 8, MaxW: 7, ZeroFrac: 0.2, Directed: true})
	res, err := FullReverseSSSP(g, 5, congest.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// dist-to-5 from u equals Dijkstra on the reversed graph from 5.
	want := graph.Dijkstra(g.Reverse(), 5)
	for u := 0; u < g.N(); u++ {
		if res.Dist[0][u] != want[u] {
			t.Fatalf("dist-to-5 from %d = %d, want %d", u, res.Dist[0][u], want[u])
		}
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 2})
	if _, err := Run(g, Opts{H: 2}); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{0}}); err == nil {
		t.Fatal("H=0 accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{5}, H: 1}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{2, 2}, H: 2}); err == nil || !strings.Contains(err.Error(), "duplicate source 2") {
		t.Fatalf("repeated source: err = %v, want a refusal naming duplicate source 2", err)
	}
}
