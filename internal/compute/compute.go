// Package compute is the centralized shared-memory APSP backend: the
// non-CONGEST production path for bootstrapping the oracle at sizes where
// simulating the message-passing engine is wasteful, and the independent
// reference the CONGEST families are differentially validated against.
//
// The kernel is a work-stealing per-source parallel Dijkstra: sources are
// fanned out over an atomic counter, each worker owns one monotone radix
// queue and a key plane, relaxes over a CSR adjacency, and writes its
// finished dist/hops/parent rows into the shared result (rows are
// disjoint, so there is no synchronization on the hot path). A finished
// row records which of its source's arcs are essential — the one-hop path
// is that source's shortest to the arc's head — and a later row that
// settles the source relaxes only those. Each node's arcs are sorted by
// weight, and once a row has reached every node a scan stops at the first
// arc heavier than the queue's bound on every unsettled key (packed.go
// has both rules and why they are exact). So a row costs its unlearned
// nodes' arcs plus its learned nodes' essential arcs, each scan cut at
// that bound: k·arcs for k sources at worst, the k per-source rows the
// paper's Algorithm 1 computes, and on the dense ledger graph (every
// source, 11 % of arcs essential, every node reached within a few pops)
// about 13 % of that.
//
// It works on packed keys: one (dist, hops) pair per machine word,
// dist<<shift | hops, so a relaxation is one add and one compare (key.go
// has the layout and the rule for when a graph fits it). There is no
// second representation: a graph whose path weights do not fit beside the
// hop field — per-arc weights above ~9·10¹⁰ at n = 1536 — is refused with
// ErrKeyRange, and the CONGEST families, which keep dist and hops in
// separate words, still run it.
//
// The kernel computes lexicographic (distance, hops) minima — exactly the
// quantity the pipelined CONGEST families of the paper produce — and
// records Algorithm 1's Step 9 parent, the smallest-ID neighbour that
// delivers the final (distance, hops), so the output is bit-identical to
// core.Run on dist, hops and parents. It writes straight into a Matrix,
// the store layout oracle.Build adopts and oracle snapshots are saved
// from and loaded into, so a computed row is never copied on its way to
// being served.
package compute

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/graph"
)

// ErrKeyRange reports a graph whose path weights do not fit a packed key
// beside the hop field (layoutFor), which the kernel needs.
var ErrKeyRange = errors.New("compute: path weights do not fit a packed key (the congest backend still runs this graph)")

// Opts configures APSP.
type Opts struct {
	// Sources lists the rows to compute. Nil or empty means every node.
	Sources []int
	// Workers caps parallelism; 0 means GOMAXPROCS. More workers than
	// sources never run: sources are the unit of the fan-out.
	Workers int
}

// Matrix is the store layout of a computed answer, declared once for every
// layer that holds one: the kernel fills it, family.Result and
// oracle.BuildInput carry it, oracle.Build adopts it and snapshot files
// hold its columns byte for byte. Row i describes shortest paths from
// Sources[i]; cell (i, v) of every column is at index i·N+v. Hops and
// Parent are nil when not recorded, and an unreachable cell is
// (graph.Inf, -1, -1).
type Matrix struct {
	Sources []int
	N       int
	Dist    []int64
	Hops    []int32
	Parent  []int32
}

// Result is the computed Matrix with all three columns. The source's own
// entry is (0, 0, src). Dist and Hops are bit-identical to the CONGEST
// pipeline family (lexicographic (distance, hops) minima), and Parent is
// identical to core.Run's: each cell holds the smallest-ID neighbour that
// delivers the cell's (distance, hops), Algorithm 1's Step 9 rule.
type Result struct {
	Matrix
	// Workers records the worker count actually used.
	Workers int
}

// APSP computes shortest paths from every requested source with the
// packed per-source Dijkstra. It is deterministic: the same graph and
// options produce the same matrices regardless of worker count.
func APSP(g *graph.Graph, opts Opts) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("compute: nil graph")
	}
	n := g.N()
	sources := opts.Sources
	if len(sources) == 0 {
		sources = make([]int, n)
		for v := range sources {
			sources[v] = v
		}
	} else {
		sources = append([]int(nil), sources...)
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("compute: source %d out of range (n=%d)", s, n)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxPath, err := g.MaxPathWeight()
	if err != nil {
		return nil, fmt.Errorf("compute: %w", err)
	}
	lay, err := layoutFor(n, maxPath)
	if err != nil {
		return nil, err
	}
	cells := len(sources) * n
	res := &Result{Workers: min(workers, len(sources)), Matrix: Matrix{Sources: sources, N: n,
		Dist: make([]int64, cells), Hops: make([]int32, cells), Parent: make([]int32, cells)}}
	packedDijkstra(g, lay, res)
	return res, nil
}
