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

// sameCells compares the kernel's (dist, hops) with core.Run's rows.
func sameCells(t *testing.T, what string, a *Result, b *core.Result) {
	t.Helper()
	for i := range b.Dist {
		for v := range b.Dist[i] {
			c := i*a.N + v
			if a.Dist[c] != b.Dist[i][v] || int64(a.Hops[c]) != b.Hops[i][v] {
				t.Fatalf("%s differ at (%d,%d): (%d,%d) vs (%d,%d)", what, i, v,
					a.Dist[c], a.Hops[c], b.Dist[i][v], b.Hops[i][v])
			}
		}
	}
}

func walkAll(t *testing.T, what string, g *graph.Graph, res *Result) {
	t.Helper()
	pv := core.PathView{
		Sources: res.Sources,
		Dist:    func(i, v int) int64 { return res.Dist[i*res.N+v] },
		Hops:    func(i, v int) int64 { return int64(res.Hops[i*res.N+v]) },
		Parent:  func(i, v int) int { return int(res.Parent[i*res.N+v]) },
	}
	for i := range res.Sources {
		for v := 0; v < res.N; v++ {
			if res.Dist[i*res.N+v] >= graph.Inf {
				continue
			}
			if _, err := core.WalkParents(g, pv, i, v); err != nil {
				t.Fatalf("%s: invalid parent tree at (%d,%d): %v", what, i, v, err)
			}
		}
	}
}

// TestRepresentationBoundaries sits on either side of the two limits the
// layout has: the hop field gains a bit between n = 64 and n = 65, and a
// graph stops packing one unit of weight above the largest maxW that fits
// beside it. On the packing side the kernel answers as core.Run does and
// records parents the walker accepts; one unit above, APSP refuses the
// graph by name.
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
				if maxW > fits {
					if _, err := APSP(g, Opts{}); !errors.Is(err, ErrKeyRange) {
						t.Fatalf("%s: a graph that does not pack: err = %v, want ErrKeyRange", name, err)
					}
					continue
				}
				ref, err := core.Run(g, core.Opts{Sources: allNodes(n), H: n - 1})
				if err != nil {
					t.Fatalf("%s: core.Run: %v", name, err)
				}
				res, err := APSP(g, Opts{Workers: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameCells(t, name+": APSP and core.Run", res, ref)
				walkAll(t, name, g, res)
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
