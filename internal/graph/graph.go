// Package graph provides the weighted-graph representation used throughout
// the repository, generators for the graph families the experiments run on,
// and sequential reference algorithms (Dijkstra, Floyd–Warshall, h-hop
// dynamic programming, zero-weight closure) that every distributed algorithm
// is validated against.
//
// Edge weights are non-negative int64 values; zero-weight edges are allowed,
// which is the regime the paper targets. Graphs may be directed or
// undirected. Per the CONGEST model (paper Sec. I-B), communication always
// happens on the underlying undirected graph even when the weighted graph is
// directed.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Inf is the distance value used for "unreachable". It is chosen so that
// Inf + (any legal weight sum) does not overflow int64.
const Inf int64 = math.MaxInt64 / 4

// MaxN is the largest node count the package accepts. It keeps ID arithmetic
// comfortably inside int64 in key computations elsewhere.
const MaxN = 1 << 20

// Edge is a weighted directed edge. For undirected graphs each logical edge
// appears as two directed Edge values, one per direction, with equal weight.
type Edge struct {
	From, To int
	W        int64
}

// Graph is a weighted graph with nodes 0..N()-1.
//
// The zero Graph is not usable; construct with New.
type Graph struct {
	n        int
	directed bool
	m        int // number of logical edges added via AddEdge

	out [][]Edge // out[v]: edges leaving v (for undirected graphs, both directions present)
	in  [][]Edge // in[v]: edges entering v

	comm [][]int // comm[v]: neighbors of v in the underlying undirected graph, sorted
	maxW int64
}

// New returns an empty graph on n nodes. directed selects whether AddEdge
// adds one arc (true) or a symmetric pair (false).
func New(n int, directed bool) *Graph {
	if n <= 0 || n > MaxN {
		panic(fmt.Sprintf("graph: node count %d out of range [1,%d]", n, MaxN))
	}
	return &Graph{
		n:        n,
		directed: directed,
		out:      make([][]Edge, n),
		in:       make([][]Edge, n),
		comm:     make([][]int, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of logical edges added (arcs for directed graphs,
// undirected edges for undirected graphs).
func (g *Graph) M() int { return g.m }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// MaxWeight returns the largest edge weight in the graph (0 for an empty
// graph).
func (g *Graph) MaxWeight() int64 { return g.maxW }

// AddEdge adds an edge from u to v with weight w. For undirected graphs the
// reverse arc is added as well. Self-loops and negative weights are rejected.
// Parallel edges are permitted (the algorithms treat them correctly; the
// communication graph keeps a single link).
func (g *Graph) AddEdge(u, v int, w int64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d rejected", u)
	}
	if w < 0 {
		return fmt.Errorf("graph: negative weight %d on edge (%d,%d)", w, u, v)
	}
	if w >= Inf {
		return fmt.Errorf("graph: weight %d on edge (%d,%d) exceeds maximum %d", w, u, v, Inf-1)
	}
	g.out[u] = append(g.out[u], Edge{From: u, To: v, W: w})
	g.in[v] = append(g.in[v], Edge{From: u, To: v, W: w})
	if !g.directed {
		g.out[v] = append(g.out[v], Edge{From: v, To: u, W: w})
		g.in[u] = append(g.in[u], Edge{From: v, To: u, W: w})
	}
	if !g.HasLink(u, v) {
		g.comm[u] = insertSorted(g.comm[u], v)
		g.comm[v] = insertSorted(g.comm[v], u)
	}
	if w > g.maxW {
		g.maxW = w
	}
	g.m++
	return nil
}

// ErrPathOverflow reports a graph whose path weights can reach Inf.
var ErrPathOverflow = errors.New("graph: path weights can reach Inf")

// MaxPathWeight returns the largest weight a shortest path in g can have:
// (N()−1)·MaxWeight(), n−1 arcs of the heaviest weight. AddEdge bounds one
// weight by Inf, not a sum of them; when this bound reaches Inf a reachable
// node's distance could read as "unreachable", and the error wraps
// ErrPathOverflow. Every entry point that sums weights checks it once.
func (g *Graph) MaxPathWeight() (int64, error) {
	hi, lo := bits.Mul64(uint64(g.n-1), uint64(g.maxW))
	if hi != 0 || lo >= uint64(Inf) {
		return 0, fmt.Errorf("%w: %d arcs of weight %d", ErrPathOverflow, g.n-1, g.maxW)
	}
	return int64(lo), nil
}

// MustAddEdge is AddEdge but panics on error; for generators and tests.
func (g *Graph) MustAddEdge(u, v int, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Out returns the edges leaving v. The returned slice must not be modified.
func (g *Graph) Out(v int) []Edge { return g.out[v] }

// In returns the edges entering v. The returned slice must not be modified.
func (g *Graph) In(v int) []Edge { return g.in[v] }

// insertSorted inserts x into the ascending slice s (x not present).
func insertSorted(s []int, x int) []int {
	p := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[p+1:], s[p:])
	s[p] = x
	return s
}

// CommNeighbors returns v's neighbors in the underlying undirected
// communication graph, in ascending order. The slice must not be modified.
// Safe for concurrent readers (the engine steps nodes in parallel).
func (g *Graph) CommNeighbors(v int) []int { return g.comm[v] }

// HasLink reports whether {u,v} is a link in the communication graph.
func (g *Graph) HasLink(u, v int) bool { return g.CommIndex(u, v) >= 0 }

// CommIndex returns v's position in u's sorted neighbor list, or -1 if
// {u,v} is not a link. Positions are stable while no further edges are
// added, letting callers keep per-link state in dense arrays during a run.
func (g *Graph) CommIndex(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	s := g.comm[u]
	p := sort.SearchInts(s, v)
	if p < len(s) && s[p] == v {
		return p
	}
	return -1
}

// Degree returns the communication-graph degree of v.
func (g *Graph) Degree(v int) int { return len(g.comm[v]) }

// Weight returns the minimum weight among parallel arcs u->v, or (0,false)
// if there is no such arc.
func (g *Graph) Weight(u, v int) (int64, bool) {
	best, ok := int64(0), false
	for _, e := range g.out[u] {
		if e.To == v && (!ok || e.W < best) {
			best, ok = e.W, true
		}
	}
	return best, ok
}

// Edges returns all arcs in a deterministic order (by From, then To, then W,
// preserving insertion order among exact duplicates).
func (g *Graph) Edges() []Edge {
	all := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		for _, e := range g.out[v] {
			if g.directed || e.From < e.To {
				all = append(all, e)
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].From != all[j].From {
			return all[i].From < all[j].From
		}
		if all[i].To != all[j].To {
			return all[i].To < all[j].To
		}
		return all[i].W < all[j].W
	})
	return all
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n, g.directed)
	for _, e := range g.Edges() {
		c.MustAddEdge(e.From, e.To, e.W)
	}
	return c
}

// Reverse returns the graph with every arc reversed. For undirected graphs
// it returns a clone.
func (g *Graph) Reverse() *Graph {
	if !g.directed {
		return g.Clone()
	}
	r := New(g.n, true)
	for _, e := range g.Edges() {
		r.MustAddEdge(e.To, e.From, e.W)
	}
	return r
}

// Transform returns a copy of g with every weight mapped through f. f must
// return a non-negative weight below Inf.
func (g *Graph) Transform(f func(int64) int64) *Graph {
	t := New(g.n, g.directed)
	for _, e := range g.Edges() {
		t.MustAddEdge(e.From, e.To, f(e.W))
	}
	return t
}

// Subgraph returns the graph containing only arcs for which keep returns
// true (applied to each logical edge), on the same node set.
func (g *Graph) Subgraph(keep func(Edge) bool) *Graph {
	s := New(g.n, g.directed)
	for _, e := range g.Edges() {
		if keep(e) {
			s.MustAddEdge(e.From, e.To, e.W)
		}
	}
	return s
}

// CommConnected reports whether the underlying communication graph is
// connected (true for n == 1).
func (g *Graph) CommConnected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.CommNeighbors(v) {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.n
}

// CommDiameter returns the hop diameter of the communication graph, or -1 if
// it is disconnected.
func (g *Graph) CommDiameter() int {
	diam := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		reached := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.CommNeighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					reached++
					if dist[u] > diam {
						diam = dist[u]
					}
					queue = append(queue, u)
				}
			}
		}
		if reached != g.n {
			return -1
		}
	}
	return diam
}

// MinInArcs flattens an in-edge list into parallel arrays: the unique
// senders in ascending order, each with its minimum arc weight (parallel
// edges collapse to the cheapest). Protocol receive loops use the pair for
// an allocation-free merge-join against the engine's sender-sorted inbox,
// replacing a per-message map probe.
func MinInArcs(edges []Edge) (from []int32, w []int64) {
	if len(edges) == 0 {
		return nil, nil
	}
	type arc struct {
		from int32
		w    int64
	}
	arcs := make([]arc, 0, len(edges))
	for _, e := range edges {
		arcs = append(arcs, arc{from: int32(e.From), w: e.W})
	}
	sort.Slice(arcs, func(i, j int) bool {
		return arcs[i].from < arcs[j].from || (arcs[i].from == arcs[j].from && arcs[i].w < arcs[j].w)
	})
	from = make([]int32, 0, len(arcs))
	w = make([]int64, 0, len(arcs))
	for _, a := range arcs {
		if n := len(from); n > 0 && from[n-1] == a.from {
			continue // sorted: first occurrence carries the minimum weight
		}
		from = append(from, a.from)
		w = append(w, a.w)
	}
	return from, w
}
