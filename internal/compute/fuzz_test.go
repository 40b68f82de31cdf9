package compute_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bellman"
	"repro/internal/compute"
	"repro/internal/graph"
)

// FuzzParallelDijkstra: random graph bytes (the repository text format)
// are decoded, capped to a tractable size, and both compute kernels are
// differentially checked against CONGEST Bellman–Ford — the slow-but-safe
// baseline that is indifferent to zero weights. Any divergence, panic, or
// parent matrix the walker rejects is a finding. The kernels may refuse a
// decoded graph in exactly two ways, and only together: with
// graph.ErrPathOverflow when path weights can reach Inf, and with
// compute.ErrKeyRange when they do not fit a packed key.
func FuzzParallelDijkstra(f *testing.F) {
	f.Add("n 3 directed\ne 0 1 5\ne 1 2 0\n")
	f.Add("n 1 undirected\n")
	f.Add("n 4 directed\ne 0 1 0\ne 1 2 0\ne 2 3 0\ne 0 3 1\n")
	f.Add("n 5 undirected\ne 0 1 3\ne 1 2 4\ne 3 4 2\n")
	f.Add("n 2 directed\ne 0 1 9\ne 0 1 2\n")
	f.Add("n 3 directed\ne 0 1 1152921504606846976\ne 1 2 1152921504606846976\n") // 2·2⁶⁰ ≥ Inf
	f.Add("n 3 directed\ne 0 1 288230376151711744\ne 1 2 5\ne 0 2 6\n")           // 2⁵⁸: too wide to pack
	f.Fuzz(func(t *testing.T, input string) {
		g, err := graph.Decode(strings.NewReader(input))
		if err != nil {
			return // not a graph; the decoder fuzzer owns this surface
		}
		n := g.N()
		if n == 0 || n > 64 || g.M() > 512 {
			return // keep each execution cheap so the fuzzer explores
		}
		sources := make([]int, n)
		for v := range sources {
			sources[v] = v
		}
		dij, err := compute.APSP(g, compute.Opts{Sources: sources, Kernel: compute.Dijkstra})
		fw, ferr := compute.APSP(g, compute.Opts{Sources: sources, Kernel: compute.Floyd})
		for _, refusal := range []error{graph.ErrPathOverflow, compute.ErrKeyRange} {
			if errors.Is(err, refusal) && errors.Is(ferr, refusal) {
				return
			}
		}
		if err != nil {
			t.Fatalf("dijkstra kernel rejected a decoded graph: %v", err)
		}
		if ferr != nil {
			t.Fatalf("floyd kernel rejected a decoded graph: %v", ferr)
		}
		h := n - 1
		if h < 1 {
			h = 1
		}
		bf, err := bellman.Run(g, bellman.Opts{Sources: sources, H: h})
		if err != nil {
			t.Fatalf("bellman-ford baseline: %v", err)
		}
		for i := 0; i < n; i++ {
			for v := 0; v < n; v++ {
				c := i*n + v
				if dij.Dist[c] != bf.Dist[i][v] {
					t.Fatalf("dist(%d->%d): dijkstra %d, bellman-ford %d\ngraph:\n%s",
						i, v, dij.Dist[c], bf.Dist[i][v], input)
				}
				if fw.Dist[c] != bf.Dist[i][v] {
					t.Fatalf("dist(%d->%d): floyd %d, bellman-ford %d\ngraph:\n%s",
						i, v, fw.Dist[c], bf.Dist[i][v], input)
				}
				if dij.Hops[c] != fw.Hops[c] {
					t.Fatalf("hops(%d->%d): dijkstra %d, floyd %d\ngraph:\n%s",
						i, v, dij.Hops[c], fw.Hops[c], input)
				}
			}
		}
	})
}
