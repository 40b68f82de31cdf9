// Package compute is the centralized shared-memory APSP backend: the
// non-CONGEST production path for bootstrapping the oracle at sizes where
// simulating the message-passing engine is wasteful, and the independent
// reference the CONGEST families are differentially validated against.
//
// Two kernels sit behind one entry point:
//
//   - A work-stealing per-source parallel Dijkstra: sources are fanned out
//     over an atomic counter, each worker owns one 4-ary heap and a key
//     plane, relaxes over a CSR adjacency, and writes its finished
//     dist/hops/parent rows into the shared result (rows are disjoint, so
//     there is no synchronization on the hot path).
//   - A cache-blocked Floyd–Warshall for dense all-pairs workloads, tiled
//     so the three classic phases run over B×B blocks that fit in cache,
//     with the independent phase-2/phase-3 tiles spread across workers.
//
// Both work on packed keys: one (dist, hops) pair per machine word,
// dist<<shift | hops, so a relaxation is one add and one compare (key.go
// has the layout and the rule for when a graph fits it). There is no
// second representation: a graph whose path weights do not fit beside the
// hop field — per-arc weights above ~9·10¹⁰ at n = 1536 — is refused with
// ErrKeyRange, and the CONGEST families, which keep dist and hops in
// separate words, still run it.
//
// Both kernels compute lexicographic (distance, hops) minima — exactly the
// quantity the pipelined CONGEST families of the paper produce — so the
// output is bit-identical to core.Run on dist and hops, and the parent
// matrix passes the same core.WalkParents tightness validation. The kernels
// write straight into a Matrix, the store layout oracle.Build adopts and
// oracle snapshots are saved from and loaded into, so a computed row is
// never copied on its way to being served.
package compute

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/graph"
)

// Kernel selects the algorithm behind APSP.
type Kernel string

const (
	// Auto picks a kernel from the graph's density and the source count
	// (see pick for the measured rule).
	Auto Kernel = "auto"
	// Dijkstra forces the work-stealing per-source parallel Dijkstra.
	Dijkstra Kernel = "dijkstra"
	// Floyd forces the cache-blocked Floyd–Warshall.
	Floyd Kernel = "floyd"
)

// ErrKeyRange reports a graph whose path weights do not fit a packed key
// beside the hop field (layoutFor), which both kernels need.
var ErrKeyRange = errors.New("compute: path weights do not fit a packed key (the congest backend still runs this graph)")

// Opts configures APSP.
type Opts struct {
	// Sources lists the rows to compute. Nil or empty means every node.
	Sources []int
	// Workers caps parallelism; 0 means GOMAXPROCS.
	Workers int
	// Kernel selects the algorithm; "" and Auto pick by density.
	Kernel Kernel
}

// Matrix is the store layout of a computed answer, declared once for every
// layer that holds one: the kernels fill it, family.Result and
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
// pipeline family (lexicographic (distance, hops) minima); Parent is a
// valid shortest-path tree under core.WalkParents tightness but not
// necessarily the same tree the distributed run records (tie-broken paths
// may differ).
type Result struct {
	Matrix
	// Kernel records the kernel that actually ran (never Auto).
	Kernel Kernel
	// Workers records the worker count actually used.
	Workers int
}

// APSP computes shortest paths from every requested source using a
// shared-memory kernel. It is deterministic: the same graph and options
// produce the same matrices regardless of worker count.
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

	kernel := opts.Kernel
	if kernel == "" || kernel == Auto {
		kernel = pick(g, len(sources))
	}

	var run func(*graph.Graph, keyLayout, *Result)
	switch kernel {
	case Dijkstra:
		// Sources are the unit of Dijkstra's fan-out; Floyd's tiles
		// parallelise over n² whatever k is.
		workers = min(workers, len(sources))
		run = packedDijkstra
	case Floyd:
		run = blockedFloyd
	default:
		return nil, fmt.Errorf("compute: unknown kernel %q", kernel)
	}
	cells := len(sources) * n
	res := &Result{Kernel: kernel, Workers: workers, Matrix: Matrix{Sources: sources, N: n,
		Dist: make([]int64, cells), Hops: make([]int32, cells), Parent: make([]int32, cells)}}
	run(g, lay, res)
	return res, nil
}

// pick chooses a kernel. Per-source Dijkstra costs about k·arcs, blocked
// Floyd–Warshall n³ whatever the density or k, so Floyd wins only when
// k·arcs is a large enough share of n³. The share is measured (packed
// kernels, all sources, 2 workers, best of 6 and of 4, seconds at arcs =
// n²/16, n²/8, n²/4, n²/2, n²; CHANGES.md has the table with the previous
// kernels beside it):
//
//	n =  768  dijkstra 0.08 0.09 0.12 0.17 0.26   floyd 0.23 0.22 0.20 0.19 0.18
//	n = 1536  dijkstra 0.38 0.50 0.70 1.11 1.82   floyd 1.60 1.49 1.40 1.33 1.29
//
// The curves cross at arcs ≈ 0.59·n² and ≈ 0.65·n²: Floyd from k·arcs =
// 5n³/8 up. Halving k halves Dijkstra's side only, which the product
// carries: at n = 768, k = n/2 Dijkstra wins at n²/2 (0.09 against 0.18)
// and still at n² (0.13 against 0.17).
func pick(g *graph.Graph, k int) Kernel {
	n, arcs := float64(g.N()), float64(g.M())
	if !g.Directed() {
		arcs *= 2
	}
	if 8*float64(k)*arcs >= 5*n*n*n {
		return Floyd
	}
	return Dijkstra
}
