// Package cssp builds h-hop Consistent SSSP collections (CSSSP,
// Definition III.3 and Lemma III.4 of the paper): a family of rooted trees
// T_x of height at most h, one per source, such that the path between any
// two vertices is the same in every tree containing it, and T_x reaches
// every vertex whose true shortest-path distance from x is realized within
// h hops.
//
// The construction is the paper's: run the pipelined Algorithm 1 with hop
// bound 2h, then retain only the vertices whose recorded shortest-path
// entry uses at most h hops (every other vertex sets its parent for that
// source to NIL). Verify checks Definition III.3 directly and is used both
// as a test oracle and as experiment E-CSSSP.
package cssp

import (
	"fmt"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// Collection is an h-hop CSSSP collection.
type Collection struct {
	Sources []int
	H       int
	// Parent[i][v]: parent of v in tree T_{Sources[i]}; -1 when v is not
	// in the tree; the root's parent is itself.
	Parent [][]int
	// Dist[i][v], Hops[i][v]: the recorded distance and hop length for
	// vertices in the tree (graph.Inf / -1 otherwise).
	Dist [][]int64
	Hops [][]int64
	// Children[i][v]: v's children in tree i (derived from Parent).
	Children [][][]int
	// RawDist[i][v] is the untruncated 2h-hop shortest distance from the
	// underlying Step 1 run (graph.Inf if unreachable in 2h hops): the
	// short-range distances Algorithm 3 combines with the per-blocker
	// values.
	RawDist [][]int64
	// Stats is the cost of the Step 1 run and the repair phase.
	Stats congest.Stats
}

// Build constructs the h-hop CSSSP collection for the given sources by
// running Algorithm 1 with hop bound 2h and truncating to h hops
// (Lemma III.4), followed by a distributed parent re-selection and peeling
// phase. The extra phase repairs a gap in the paper's construction that
// this repository found empirically: after truncation, a retained node's
// recorded parent can itself lie outside the tree (its 2h-hop optimum
// improves only at exactly 2h hops), breaking the parent chain. Each node
// therefore re-selects, per source, the minimum-ID in-neighbor whose
// recorded pair is exactly (d − w, l − 1); nodes with no valid candidate
// leave the tree and announce it so their dependents re-select in turn.
// Vertices the definition requires (those whose true distance δ(x,v) is
// realizable within h hops) provably never drop: along a minimal-hop true
// shortest path every prefix pair is recorded exactly.
//
// delta bounds 2h-hop shortest path distances (0 = derive). cfg carries the
// engine knobs for both the Algorithm 1 run and the repair phase; its
// Observer (may be nil) receives both phases' events.
func Build(g *graph.Graph, sources []int, h int, delta int64, cfg congest.Config) (*Collection, error) {
	r, err := core.Run(g, core.Opts{Sources: sources, H: 2 * h, Delta: delta, Engine: cfg})
	if err != nil {
		return nil, fmt.Errorf("cssp: Algorithm 1 run: %w", err)
	}
	return build(g, sources, h, r.Dist, r.Hops, r.Parent, r.Stats, cfg)
}

// BuildBellmanFord constructs the same collection but computes the 2h-hop
// distances and their hop counts with hop-tagged distributed Bellman–Ford
// instead of Algorithm 1 — the Θ(n·h)-round method of [3] that the paper's
// Sec. III replaces ("the method in [3] takes Θ(n·h) rounds, which is too
// large for our purposes"). Kept as the ablation baseline for experiment
// E-STEP1; Stats is what its run and the repair phase measured.
func BuildBellmanFord(g *graph.Graph, sources []int, h int, cfg congest.Config) (*Collection, error) {
	r, err := bellman.Run(g, bellman.Opts{Sources: sources, H: 2 * h, Engine: cfg})
	if err != nil {
		return nil, fmt.Errorf("cssp: Bellman-Ford run: %w", err)
	}
	return build(g, sources, h, r.Dist, r.Hops, r.Parent, r.Stats, cfg)
}

// build truncates Step 1's 2h-hop rows, as the run that produced them
// recorded them, to h hops and runs the repair phase.
func build(g *graph.Graph, sources []int, h int, dist, hops [][]int64, parent [][]int, stats congest.Stats, cfg congest.Config) (*Collection, error) {
	k := len(sources)
	n := g.N()
	c := &Collection{
		Sources:  append([]int(nil), sources...),
		H:        h,
		Parent:   make([][]int, k),
		Dist:     make([][]int64, k),
		Hops:     make([][]int64, k),
		Children: make([][][]int, k),
		RawDist:  dist,
		Stats:    stats,
	}
	for i := 0; i < k; i++ {
		c.Parent[i] = make([]int, n)
		c.Dist[i] = make([]int64, n)
		c.Hops[i] = make([]int64, n)
		c.Children[i] = make([][]int, n)
		for v := 0; v < n; v++ {
			if hops[i][v] >= 0 && hops[i][v] <= int64(h) {
				c.Parent[i][v] = parent[i][v]
				c.Dist[i][v] = dist[i][v]
				c.Hops[i][v] = hops[i][v]
			} else {
				c.Parent[i][v] = -1
				c.Dist[i][v] = graph.Inf
				c.Hops[i][v] = -1
			}
		}
	}
	s2, err := c.reselect(g, cfg)
	c.Stats.Add(s2)
	if err != nil {
		return nil, err
	}
	c.derive()
	return c, nil
}

// derive fills Children from Parent.
func (c *Collection) derive() {
	for i, root := range c.Sources {
		for v, p := range c.Parent[i] {
			if p >= 0 && v != root {
				c.Children[i][p] = append(c.Children[i][p], v)
			}
		}
	}
}

// PathTo returns the tree path from the root of tree i to v (inclusive), or
// nil if v is not in the tree or the parent chain is malformed.
func (c *Collection) PathTo(i, v int) []int {
	if c.Parent[i][v] < 0 {
		return nil
	}
	root := c.Sources[i]
	var rev []int
	for cur := v; ; cur = c.Parent[i][cur] {
		rev = append(rev, cur)
		if cur == root {
			break
		}
		if len(rev) > len(c.Parent[i]) || c.Parent[i][cur] < 0 {
			return nil
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// Verify checks Definition III.3 and returns a list of violations (empty
// means the collection is a valid h-hop CSSSP). g is the graph the
// collection was built from.
func (c *Collection) Verify(g *graph.Graph) []string {
	var bad []string
	n := g.N()

	// (a) Trees are well-formed: parent chains reach the root, height ≤ h,
	// depth equals the recorded hop count, edges exist with consistent
	// weights.
	for i, root := range c.Sources {
		if c.Parent[i][root] != root {
			bad = append(bad, fmt.Sprintf("tree %d: root %d not its own parent", i, root))
			continue
		}
		for v := 0; v < n; v++ {
			if c.Parent[i][v] < 0 {
				continue
			}
			path := c.PathTo(i, v)
			if path == nil {
				bad = append(bad, fmt.Sprintf("tree %d: broken parent chain at %d", i, v))
				continue
			}
			if len(path)-1 > c.H {
				bad = append(bad, fmt.Sprintf("tree %d: node %d at depth %d > h=%d", i, v, len(path)-1, c.H))
			}
			if int64(len(path)-1) != c.Hops[i][v] {
				bad = append(bad, fmt.Sprintf("tree %d: node %d depth %d != recorded hops %d", i, v, len(path)-1, c.Hops[i][v]))
			}
			var w int64
			okPath := true
			for j := 0; j+1 < len(path); j++ {
				ew, ok := g.Weight(path[j], path[j+1])
				if !ok {
					bad = append(bad, fmt.Sprintf("tree %d: missing arc (%d,%d)", i, path[j], path[j+1]))
					okPath = false
					break
				}
				w += ew
			}
			if okPath && w != c.Dist[i][v] {
				bad = append(bad, fmt.Sprintf("tree %d: path weight %d != recorded dist %d at %d", i, w, c.Dist[i][v], v))
			}
		}
	}

	// (b) Distances are the h-hop shortest path distances in the tree's
	// hop class: the recorded distance must equal the (≤ recorded hops)-hop
	// optimum and the hop count must be minimal for that distance.
	for i, root := range c.Sources {
		wantD, wantL := graph.HHopDistHops(g, root, c.H)
		for v := 0; v < n; v++ {
			if c.Parent[i][v] < 0 {
				continue
			}
			if c.Dist[i][v] != wantD[v] || c.Hops[i][v] != int64(wantL[v]) {
				bad = append(bad, fmt.Sprintf("tree %d: (d,l) at %d = (%d,%d), h-hop optimum (%d,%d)",
					i, v, c.Dist[i][v], c.Hops[i][v], wantD[v], wantL[v]))
			}
		}
	}

	// (c) Containment: T_u contains every v whose true shortest-path
	// distance from u is achieved within h hops.
	for i, root := range c.Sources {
		full := graph.Dijkstra(g, root)
		hh := graph.HHopDistances(g, root, c.H)
		for v := 0; v < n; v++ {
			if full[v] < graph.Inf && hh[v] == full[v] && c.Parent[i][v] < 0 {
				bad = append(bad, fmt.Sprintf("tree %d: missing %d though δ=%d is h-hop realizable", i, v, full[v]))
			}
		}
	}

	// (d) Cross-tree consistency: the u→v segment is identical in every
	// tree that contains it.
	type segKey struct{ u, v int }
	seen := make(map[segKey]string)
	for i := range c.Sources {
		for v := 0; v < n; v++ {
			path := c.PathTo(i, v)
			for j := 0; j < len(path)-1; j++ {
				u := path[j]
				key := segKey{u, v}
				sig := fmt.Sprint(path[j:])
				if prev, ok := seen[key]; ok {
					if prev != sig {
						bad = append(bad, fmt.Sprintf("inconsistent segment %d→%d: %s vs %s", u, v, prev, sig))
					}
				} else {
					seen[key] = sig
				}
			}
		}
	}
	return bad
}
