package compute

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// zeroPath is the hop field's worst case: 0 → 1 → … → n−1 over zero-weight
// arcs, so hops reach n−1 at distance 0, plus one arc of weight maxW from
// end to end that must lose to them.
func zeroPath(n int, maxW int64) *graph.Graph {
	g := graph.New(n, true)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 0)
	}
	g.MustAddEdge(0, n-1, maxW)
	return g
}

// zeroHeavyUpTo is a half-zero random digraph whose heaviest arc weighs
// exactly maxW.
func zeroHeavyUpTo(n int, maxW int64) *graph.Graph {
	g := graph.ZeroHeavy(n, 5*n, 0.5, graph.GenOpts{Seed: int64(n), MaxW: maxW, Directed: true})
	g.MustAddEdge(n-1, 0, maxW)
	return g
}

func sameCells(t *testing.T, what string, a, b *Result, parents bool) {
	t.Helper()
	for i := range a.Dist {
		for v := range a.Dist[i] {
			if a.Dist[i][v] != b.Dist[i][v] || a.Hops[i][v] != b.Hops[i][v] || (parents && a.Parent[i][v] != b.Parent[i][v]) {
				t.Fatalf("%s differ at (%d,%d): (%d,%d,%d) vs (%d,%d,%d)", what, i, v,
					a.Dist[i][v], a.Hops[i][v], a.Parent[i][v], b.Dist[i][v], b.Hops[i][v], b.Parent[i][v])
			}
		}
	}
}

func walkAll(t *testing.T, what string, g *graph.Graph, res *Result) {
	t.Helper()
	pv := core.PathView{
		Sources: res.Sources,
		Dist:    func(i, v int) int64 { return res.Dist[i][v] },
		Hops:    func(i, v int) int64 { return res.Hops[i][v] },
		Parent:  func(i, v int) int { return res.Parent[i][v] },
	}
	for i := range res.Sources {
		for v := range res.Dist[i] {
			if res.Dist[i][v] >= graph.Inf {
				continue
			}
			if _, err := core.WalkParents(g, pv, i, v); err != nil {
				t.Fatalf("%s: invalid parent tree at (%d,%d): %v", what, i, v, err)
			}
		}
	}
}

// TestRepresentationBoundaries runs both representations on either side of
// the two limits the layout has: the hop field gains a bit between n = 64
// and n = 65, and a graph stops packing one unit of weight above the
// largest maxW that fits beside it.
func TestRepresentationBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		lay, _ := layoutFor(n, 0)
		if want := map[int]uint{63: 8, 64: 8, 65: 9}[n]; lay.shift != want {
			t.Fatalf("n=%d: hop field of %d bits, want %d", n, lay.shift, want)
		}
		fits := (int64(1)<<(60-lay.shift) - 1) / int64(n-1)
		for _, maxW := range []int64{fits, fits + 1} {
			for shape, g := range map[string]*graph.Graph{"zero-path": zeroPath(n, maxW), "zero-heavy": zeroHeavyUpTo(n, maxW)} {
				name := fmt.Sprintf("n=%d/maxW=%d/%s", n, maxW, shape)
				maxPath, err := g.MaxPathWeight()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				lay, packs := layoutFor(n, maxPath)
				if packs != (maxW == fits) {
					t.Fatalf("%s: packs = %v", name, packs)
				}

				wide := &Result{Sources: allNodes(n), Workers: 2}
				wide.allocRows(n)
				parallelDijkstra(g, wide, wide.Workers)
				walkAll(t, name+" wide", g, wide)
				ref, err := core.Run(g, core.Opts{Sources: wide.Sources, H: n - 1})
				if err != nil {
					t.Fatalf("%s: core.Run: %v", name, err)
				}
				sameCells(t, name+": wide dijkstra and core.Run", wide, &Result{Dist: ref.Dist, Hops: ref.Hops}, false)

				auto, err := APSP(g, Opts{})
				if err != nil {
					t.Fatalf("%s: auto: %v", name, err)
				}
				if auto.Kernel != Dijkstra {
					t.Fatalf("%s: auto picked %s", name, auto.Kernel)
				}
				sameCells(t, name+": wide dijkstra and APSP", wide, auto, true)

				fw, err := APSP(g, Opts{Kernel: Floyd})
				if !packs {
					if !errors.Is(err, ErrFloydRange) {
						t.Fatalf("%s: forced floyd on a graph that does not pack: err = %v", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: floyd: %v", name, err)
				}
				sameCells(t, name+": wide dijkstra and floyd", wide, fw, false)
				walkAll(t, name+" floyd", g, fw)

				packed := &Result{Sources: wide.Sources, Workers: 2}
				packed.allocRows(n)
				packedDijkstra(g, lay, packed)
				sameCells(t, name+": wide and packed dijkstra", wide, packed, true)
			}
		}
	}
}

func allNodes(n int) []int {
	s := make([]int, n)
	for v := range s {
		s[v] = v
	}
	return s
}
