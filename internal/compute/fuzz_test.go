package compute_test

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bellman"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzParallelDijkstra: random graph bytes (the repository text format)
// are decoded, capped to a tractable size, and the compute kernel is
// differentially checked: distances against CONGEST Bellman–Ford — the
// slow-but-safe baseline that is indifferent to zero weights — and hop
// counts against the sequential h-hop table graph.HHopDistHops with h = n.
// Parents are checked against Algorithm 1's Step 9 rule by brute force:
// the smallest-ID tail of an arc that is tight in both dist and hops,
// each undirected edge scanned both ways. Any divergence, panic, or
// parent matrix the walker rejects is a finding.
// The kernel's rows are a subset of the nodes with one source repeated,
// drawn from the input's own bytes (fuzzSources), so which rows have
// finished — and taught later rows their sources' essential arcs — when
// a row runs varies from input to input, and two workers that finish
// the repeated source together race to record its arcs.
// The ring seed reaches every node from every source, so its rows cut
// their arc scans at the queue's live-key bound (a learned list's too).
// The kernel may refuse a decoded graph in exactly two ways: with
// graph.ErrPathOverflow when path weights can reach Inf, and with
// compute.ErrKeyRange when they do not fit a packed key.
func FuzzParallelDijkstra(f *testing.F) {
	f.Add("n 3 directed\ne 0 1 5\ne 1 2 0\n")
	f.Add("n 1 undirected\n")
	f.Add("n 4 directed\ne 0 1 0\ne 1 2 0\ne 2 3 0\ne 0 3 1\n")
	f.Add("n 5 undirected\ne 0 1 3\ne 1 2 4\ne 3 4 2\n")
	f.Add("n 2 directed\ne 0 1 9\ne 0 1 2\n")
	f.Add("n 4 undirected\ne 0 2 1\ne 0 1 1\ne 2 3 0\ne 1 3 0\n")                 // 3's tight neighbours 1 and 2, reached
	f.Add("n 4 undirected\ne 0 1 1\ne 0 2 1\ne 1 3 0\ne 2 3 0\n")                 // in both orders
	f.Add("n 3 directed\ne 0 1 1152921504606846976\ne 1 2 1152921504606846976\n") // 2·2⁶⁰ ≥ Inf
	f.Add("n 3 directed\ne 0 1 288230376151711744\ne 1 2 5\ne 0 2 6\n")           // 2⁵⁸: too wide to pack
	// A ring with chords: every row reaches every node, and both scans cut.
	f.Add("n 4 directed\ne 0 1 1\ne 1 2 1\ne 2 3 1\ne 3 0 1\ne 0 2 3\ne 1 0 9\ne 1 3 9\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := graph.Decode(strings.NewReader(input))
		if err != nil {
			return // not a graph; the decoder fuzzer owns this surface
		}
		n := g.N()
		if n == 0 || n > 64 || g.M() > 512 {
			return // keep each execution cheap so the fuzzer explores
		}
		sources := fuzzSources(input, n)
		dij, err := compute.APSP(g, compute.Opts{Sources: sources})
		if errors.Is(err, graph.ErrPathOverflow) || errors.Is(err, compute.ErrKeyRange) {
			return
		}
		if err != nil {
			t.Fatalf("kernel rejected a decoded graph: %v", err)
		}
		h := n - 1
		if h < 1 {
			h = 1
		}
		bf, err := bellman.Run(g, bellman.Opts{Sources: allSources(n), H: h})
		if err != nil {
			t.Fatalf("bellman-ford baseline: %v", err)
		}
		pv := core.PathView{
			Sources: dij.Sources,
			Dist:    func(i, v int) int64 { return dij.Dist[i*n+v] },
			Hops:    func(i, v int) int64 { return int64(dij.Hops[i*n+v]) },
			Parent:  func(i, v int) int { return int(dij.Parent[i*n+v]) },
		}
		edges := g.Edges()
		for i, src := range sources {
			_, wantH := graph.HHopDistHops(g, src, n)
			wantP := step9Parents(edges, g.Directed(), n, src,
				dij.Dist[i*n:(i+1)*n], dij.Hops[i*n:(i+1)*n])
			for v := 0; v < n; v++ {
				c := i*n + v
				if dij.Dist[c] != bf.Dist[src][v] {
					t.Fatalf("dist(%d->%d): dijkstra %d, bellman-ford %d\ngraph:\n%s",
						src, v, dij.Dist[c], bf.Dist[src][v], input)
				}
				if int(dij.Hops[c]) != wantH[v] {
					t.Fatalf("hops(%d->%d): dijkstra %d, sequential %d\ngraph:\n%s",
						src, v, dij.Hops[c], wantH[v], input)
				}
				if dij.Parent[c] != wantP[v] {
					t.Fatalf("parent(%d->%d): dijkstra %d, smallest tight neighbour %d\ngraph:\n%s",
						src, v, dij.Parent[c], wantP[v], input)
				}
				if dij.Dist[c] >= graph.Inf {
					continue
				}
				if _, err := core.WalkParents(g, pv, i, v); err != nil {
					t.Fatalf("parent walk (%d->%d): %v\ngraph:\n%s", src, v, err, input)
				}
			}
		}
	})
}

// fuzzSources draws the kernel's rows from the input's bytes: each node
// in a shuffled order, kept with probability 3/4 (at least one kept),
// then one kept node again at a random place.
func fuzzSources(input string, n int) []int {
	h := fnv.New64a()
	h.Write([]byte(input))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	var s []int
	for _, v := range rng.Perm(n) {
		if rng.Intn(4) != 0 {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		s = append(s, rng.Intn(n))
	}
	return slices.Insert(s, rng.Intn(len(s)+1), s[rng.Intn(len(s))])
}

// step9Parents is one row's parents by Step 9's definition, from the
// row's own (dist, hops): the source is its own parent, an unreachable
// node has none (-1), and any other node's is the smallest p with an arc
// p→v of weight w where dist[p]+w = dist[v] and hops[p]+1 = hops[v].
func step9Parents(edges []graph.Edge, directed bool, n, src int, dist []int64, hops []int32) []int32 {
	want := make([]int32, n)
	for v := range want {
		want[v] = -1
	}
	tight := func(p, v int, w int64) {
		if v != src && dist[p] < graph.Inf && dist[p]+w == dist[v] && hops[p]+1 == hops[v] &&
			(want[v] < 0 || int32(p) < want[v]) {
			want[v] = int32(p)
		}
	}
	for _, e := range edges {
		tight(e.From, e.To, e.W)
		if !directed {
			tight(e.To, e.From, e.W)
		}
	}
	want[src] = int32(src)
	return want
}
