// Package unweighted provides the pipelined unweighted APSP of
// Lenzen–Peleg [12] (refining Holzer–Wattenhofer [17]) — the algorithm the
// paper's Sec. II uses as its starting point — as a thin specialization of
// the generic single-estimate pipeline in internal/posweight with unit
// weights.
//
// It also provides the zero-weight reachability computation of Sec. IV:
// unweighted APSP run on the subgraph of zero-weight arcs, which identifies
// every pair at shortest-path distance exactly 0.
package unweighted

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/posweight"
)

// KSource computes hop distances (every arc counted as 1) from the given
// sources using the [12] pipelined schedule. The round complexity is at
// most 2n (paper Sec. II, recap of [12]). cfg carries the engine knobs;
// the zero value is fine.
func KSource(g *graph.Graph, sources []int, cfg congest.Config) (*posweight.Result, error) {
	unit := g.Transform(func(int64) int64 { return 1 })
	return posweight.Run(unit, posweight.Opts{Sources: sources, Engine: cfg})
}

// APSP computes all-pairs hop distances.
func APSP(g *graph.Graph) (*posweight.Result, error) {
	sources := make([]int, g.N())
	for v := range sources {
		sources[v] = v
	}
	return KSource(g, sources, congest.Config{})
}

// EstimateDelta computes a distributed upper bound on the h-hop
// shortest-path distances: Δ̂ = min(h, eccentricity in hops)·maxWeight,
// obtained by running the unweighted pipelined APSP (< 2n rounds) and
// taking the largest finite hop distance. Tighter than the local fallback
// h·maxWeight whenever the graph's hop eccentricities are below h, which
// shrinks Algorithm 1's proven bound 2√(khΔ)+k+h (measured rounds can
// move either way; see the public API doc). The cost is the returned
// Stats; pass the estimate as Opts.Delta.
func EstimateDelta(g *graph.Graph, h int) (int64, *posweight.Result, error) {
	res, err := APSP(g)
	if err != nil {
		return 0, nil, err
	}
	var maxHops int64
	for _, row := range res.Dist {
		for _, d := range row {
			if d < graph.Inf && d > maxHops {
				maxHops = d
			}
		}
	}
	if int64(h) < maxHops {
		maxHops = int64(h)
	}
	delta := maxHops * g.MaxWeight()
	if delta < 1 {
		delta = 1
	}
	return delta, res, nil
}

// ZeroReach computes reach[i][v] = true iff there is a zero-weight path
// from sources[i] to v, by running unweighted APSP on the zero-arc
// subgraph (paper Sec. IV: "reachability between all pairs of vertices
// connected by zero-weight paths ... considering only the zero weight
// edges"). The subgraph's links are a subset of the network's links, so the
// round cost is a legal CONGEST cost on the original network.
func ZeroReach(g *graph.Graph, sources []int, cfg congest.Config) ([][]bool, *posweight.Result, error) {
	zero := g.Subgraph(func(e graph.Edge) bool { return e.W == 0 })
	res, err := KSource(zero, sources, cfg)
	if err != nil {
		return nil, nil, err
	}
	reach := make([][]bool, len(sources))
	for i := range sources {
		reach[i] = make([]bool, g.N())
		for v := 0; v < g.N(); v++ {
			reach[i][v] = res.Dist[i][v] < graph.Inf
		}
	}
	return reach, res, nil
}
