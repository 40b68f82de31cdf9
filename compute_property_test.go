package apsp

import (
	"fmt"
	"testing"

	"repro/internal/bellman"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
)

// Property-based differential sweep over structurally distinct graph
// classes: for every instance the shared-memory compute backend, the
// pipelined CONGEST engine and CONGEST Bellman–Ford must
// produce identical distances; compute and the engine must agree on hop
// counts and on parents (both keep Algorithm 1's Step 9 rule, the
// smallest-ID tight neighbour); and every reachable compute parent entry
// must walk back to its source through tight arcs. The class generators
// deliberately cover the shapes the uniform difftest families
// under-sample — grids, heavy-tailed degree, disconnection, zero-weight
// edges, parallel arcs, a single node, a star. A
// failing instance is ddmin-shrunk before being reported, so the fixture
// in the failure message is locally minimal.

// checkComputeProperty runs the three backends on one instance and
// returns the first divergence (nil if all agree). It tolerates whatever
// the shrinker produces: empty source lists default to all nodes, and an
// empty graph is vacuously fine.
func checkComputeProperty(g *graph.Graph, sources []int, h int) error {
	n := g.N()
	if n == 0 {
		return nil
	}
	if len(sources) == 0 {
		sources = make([]int, n)
		for v := range sources {
			sources[v] = v
		}
	}
	if h < 1 {
		h = 1
	}

	dij, err := compute.APSP(g, compute.Opts{Sources: sources})
	if err != nil {
		return fmt.Errorf("compute: %v", err)
	}
	eng, err := core.Run(g, core.Opts{Sources: sources, H: h})
	if err != nil {
		return fmt.Errorf("engine: %v", err)
	}
	bf, err := bellman.Run(g, bellman.Opts{Sources: sources, H: h})
	if err != nil {
		return fmt.Errorf("bellman-ford: %v", err)
	}

	for i, src := range sources {
		for v := 0; v < n; v++ {
			c := i*n + v
			if dij.Dist[c] != eng.Dist[i][v] {
				return fmt.Errorf("dist(%d->%d): dijkstra %d, engine %d", src, v, dij.Dist[c], eng.Dist[i][v])
			}
			if bf.Dist[i][v] != eng.Dist[i][v] {
				return fmt.Errorf("dist(%d->%d): bellman-ford %d, engine %d", src, v, bf.Dist[i][v], eng.Dist[i][v])
			}
			if int64(dij.Hops[c]) != eng.Hops[i][v] {
				return fmt.Errorf("hops(%d->%d): dijkstra %d, engine %d", src, v, dij.Hops[c], eng.Hops[i][v])
			}
			if int(dij.Parent[c]) != eng.Parent[i][v] {
				return fmt.Errorf("parent(%d->%d): dijkstra %d, engine %d", src, v, dij.Parent[c], eng.Parent[i][v])
			}
		}
	}

	// Parent tree: the compute parent matrix must pass the walker's
	// tightness validation (dist[p]+w == dist[v], hops[p]+1 == hops[v])
	// on every reachable pair.
	pv := core.PathView{
		Sources: dij.Sources,
		Dist:    func(i, v int) int64 { return dij.Dist[i*n+v] },
		Hops:    func(i, v int) int64 { return int64(dij.Hops[i*n+v]) },
		Parent:  func(i, v int) int { return int(dij.Parent[i*n+v]) },
	}
	for i := range sources {
		for v := 0; v < n; v++ {
			if dij.Dist[i*n+v] >= graph.Inf {
				continue
			}
			if _, err := core.WalkParents(g, pv, i, v); err != nil {
				return fmt.Errorf("dijkstra parent walk: %v", err)
			}
		}
	}
	return nil
}

// failComputeProperty shrinks the failing instance to a local minimum and
// reports it in the committed-fixture format difftest.ParseFaultInput
// reads back.
func failComputeProperty(t *testing.T, class string, g *graph.Graph, sources []int, h int, err error) {
	t.Helper()
	min := difftest.Shrink(difftest.FaultInput{G: g, Sources: sources, H: h}, func(in difftest.FaultInput) bool {
		return checkComputeProperty(in.G, in.Sources, in.H) != nil
	})
	t.Fatalf("%s: %v\nshrunk failing instance (error there: %v):\n%s",
		class, err, checkComputeProperty(min.G, min.Sources, min.H), min.Dump())
}

// star returns an undirected star: hub 0 with n-1 spokes, one of them
// zero-weight so the hub's hop count matters for tie-breaking.
func star(n int, seed int64) *graph.Graph {
	g := graph.New(n, false)
	for v := 1; v < n; v++ {
		w := int64((seed+int64(v))%7) + 1
		if v == n-1 {
			w = 0
		}
		g.MustAddEdge(0, v, w)
	}
	return g
}

// splitComponents returns a graph with two independent random halves and
// no cross arcs, so roughly half of all pairs are unreachable.
func splitComponents(n int, seed int64) *graph.Graph {
	half := n / 2
	a := graph.Random(half, 2*half, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.2, Directed: true})
	b := graph.Random(n-half, 2*(n-half), graph.GenOpts{Seed: seed + 1, MaxW: 6, Directed: true})
	g := graph.New(n, true)
	for _, e := range a.Edges() {
		g.MustAddEdge(e.From, e.To, e.W)
	}
	for _, e := range b.Edges() {
		g.MustAddEdge(e.From+half, e.To+half, e.W)
	}
	return g
}

// multiArc returns a directed random graph in which every arc has a
// parallel twin, half of them of equal weight, so one neighbour can
// deliver the same record twice and another a worse one beside it.
func multiArc(n int, seed int64) *graph.Graph {
	g := graph.Random(n, 3*n, graph.GenOpts{Seed: seed, MaxW: 4, ZeroFrac: 0.3, Directed: true})
	for i, e := range g.Edges() {
		g.MustAddEdge(e.From, e.To, e.W+int64(i%2))
	}
	return g
}

func TestComputePropertySweep(t *testing.T) {
	classes := []struct {
		name string
		gen  func(seed int64) *graph.Graph
	}{
		{"grid", func(seed int64) *graph.Graph {
			return graph.Grid(3, 4, graph.GenOpts{Seed: seed, MaxW: 6, Directed: seed%2 == 0})
		}},
		{"pref-attach", func(seed int64) *graph.Graph {
			return graph.PreferentialAttachment(14, 2, graph.GenOpts{Seed: seed, MaxW: 8, ZeroFrac: 0.15})
		}},
		{"disconnected", func(seed int64) *graph.Graph {
			return splitComponents(12, seed)
		}},
		{"zero-heavy", func(seed int64) *graph.Graph {
			return graph.ZeroHeavy(13, 40, 0.6, graph.GenOpts{Seed: seed, MaxW: 5, Directed: true})
		}},
		{"zero-heavy-undirected", func(seed int64) *graph.Graph {
			return graph.ZeroHeavy(12, 30, 0.6, graph.GenOpts{Seed: seed, MaxW: 3})
		}},
		{"multi-arc", func(seed int64) *graph.Graph {
			return multiArc(12, seed)
		}},
		{"single-node", func(seed int64) *graph.Graph {
			return graph.New(1, true)
		}},
		{"star", func(seed int64) *graph.Graph {
			return star(9, seed)
		}},
	}
	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				g := c.gen(seed)
				n := g.N()
				sources := make([]int, n)
				for v := range sources {
					sources[v] = v
				}
				h := n - 1
				if h < 1 {
					h = 1
				}
				if err := checkComputeProperty(g, sources, h); err != nil {
					failComputeProperty(t, fmt.Sprintf("%s seed %d", c.name, seed), g, sources, h, err)
				}
			}
		})
	}
}
