package compute_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// testGraphs is the unit-test corpus: one representative per structural
// class the kernel has to get right (sparse/dense, directed/undirected,
// zero weights, disconnection).
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{
		"sparse-directed":   graph.Random(24, 60, graph.GenOpts{Seed: 1, MaxW: 9, Directed: true}),
		"sparse-undirected": graph.Random(20, 50, graph.GenOpts{Seed: 2, MaxW: 7}),
		"dense-directed":    graph.Random(16, 16*14, graph.GenOpts{Seed: 3, MaxW: 5, Directed: true}),
		"zero-heavy":        graph.ZeroHeavy(18, 70, 0.5, graph.GenOpts{Seed: 4, MaxW: 4, Directed: true}),
		"grid":              graph.Grid(4, 5, graph.GenOpts{Seed: 5, MaxW: 6}),
		"disconnected":      twoComponents(12, 6),
		"single-node":       graph.New(1, true),
	}
	return gs
}

// twoComponents builds a directed graph whose nodes split into two halves
// with no arcs between them, exercising the unreachable (Inf, -1, -1)
// convention.
func twoComponents(n int, seed int64) *graph.Graph {
	half := n / 2
	a := graph.Random(half, 2*half, graph.GenOpts{Seed: seed, MaxW: 8, Directed: true})
	b := graph.Random(n-half, 2*(n-half), graph.GenOpts{Seed: seed + 1, MaxW: 8, Directed: true})
	g := graph.New(n, true)
	for _, e := range a.Edges() {
		g.MustAddEdge(e.From, e.To, e.W)
	}
	for _, e := range b.Edges() {
		g.MustAddEdge(e.From+half, e.To+half, e.W)
	}
	return g
}

func allSources(n int) []int {
	s := make([]int, n)
	for v := range s {
		s[v] = v
	}
	return s
}

// checkAgainstSequential validates a compute result row by row against the
// sequential references: graph.Dijkstra for distances, graph.HHopDistHops
// for the lexicographic hop counts, and core.WalkParents for parent-tree
// tightness in both dist and hops.
func checkAgainstSequential(t *testing.T, g *graph.Graph, res *compute.Result) {
	t.Helper()
	n := g.N()
	pv := core.PathView{
		Sources: res.Sources,
		Dist:    func(i, v int) int64 { return res.Dist[i*n+v] },
		Hops:    func(i, v int) int64 { return int64(res.Hops[i*n+v]) },
		Parent:  func(i, v int) int { return int(res.Parent[i*n+v]) },
	}
	for i, src := range res.Sources {
		wantD := graph.Dijkstra(g, src)
		_, wantH := graph.HHopDistHops(g, src, n)
		for v := 0; v < n; v++ {
			if res.Dist[i*n+v] != wantD[v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", src, v, res.Dist[i*n+v], wantD[v])
			}
			if int(res.Hops[i*n+v]) != wantH[v] {
				t.Fatalf("hops[%d][%d] = %d, want %d", src, v, res.Hops[i*n+v], wantH[v])
			}
			if wantD[v] >= graph.Inf {
				if res.Parent[i*n+v] != -1 {
					t.Fatalf("unreachable (%d,%d) has parent %d", src, v, res.Parent[i*n+v])
				}
				continue
			}
			if _, err := core.WalkParents(g, pv, i, v); err != nil {
				t.Fatalf("invalid parent tree at (%d,%d): %v", src, v, err)
			}
		}
	}
}

func TestKernelsAgainstSequential(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := compute.APSP(g, compute.Opts{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstSequential(t, g, res)
	}
}

// TestBitIdenticalToPipeline is the core acceptance property: dist, hops
// and parents from compute.APSP match the pipelined CONGEST family entry
// for entry — both record Step 9's parent, the smallest-ID neighbour that
// delivers the final (dist, hops).
func TestBitIdenticalToPipeline(t *testing.T) {
	for name, g := range testGraphs(t) {
		n := g.N()
		h := n - 1
		if h < 1 {
			h = 1
		}
		ref, err := core.Run(g, core.Opts{Sources: allSources(n), H: h, Engine: congest.Config{Workers: 2}})
		if err != nil {
			t.Fatalf("%s: core.Run: %v", name, err)
		}
		res, err := compute.APSP(g, compute.Opts{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < n; i++ {
			for v := 0; v < n; v++ {
				if res.Dist[i*n+v] != ref.Dist[i][v] {
					t.Fatalf("%s: dist[%d][%d] = %d, pipeline %d", name, i, v, res.Dist[i*n+v], ref.Dist[i][v])
				}
				if int64(res.Hops[i*n+v]) != ref.Hops[i][v] {
					t.Fatalf("%s: hops[%d][%d] = %d, pipeline %d", name, i, v, res.Hops[i*n+v], ref.Hops[i][v])
				}
				if int(res.Parent[i*n+v]) != ref.Parent[i][v] {
					t.Fatalf("%s: parent[%d][%d] = %d, pipeline %d", name, i, v, res.Parent[i*n+v], ref.Parent[i][v])
				}
			}
		}
	}
}

func TestSourceSubset(t *testing.T) {
	g := graph.Random(30, 90, graph.GenOpts{Seed: 9, MaxW: 6, Directed: true})
	srcs := []int{7, 0, 29, 7} // unordered, duplicate: rows are independent
	res, err := compute.APSP(g, compute.Opts{Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if len(res.Dist) != len(srcs)*n {
		t.Fatalf("%d cells, want %d rows of %d", len(res.Dist), len(srcs), n)
	}
	checkAgainstSequential(t, g, res)
	for v := 0; v < n; v++ {
		if res.Dist[v] != res.Dist[3*n+v] {
			t.Fatalf("duplicate source rows differ at %d", v)
		}
	}
}

func TestErrors(t *testing.T) {
	g := graph.Random(8, 16, graph.GenOpts{Seed: 1, MaxW: 4})
	if _, err := compute.APSP(g, compute.Opts{Sources: []int{8}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := compute.APSP(g, compute.Opts{Sources: []int{-1}}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := compute.APSP(nil, compute.Opts{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestWorkerClamp: sources are the unit of the fan-out, so a one-source
// run uses one worker however many it was given.
func TestWorkerClamp(t *testing.T) {
	g := graph.Random(30, 90, graph.GenOpts{Seed: 9, MaxW: 6, Directed: true})
	res, err := compute.APSP(g, compute.Opts{Sources: []int{0}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("one source with Workers: 4 ran on %d, want 1", res.Workers)
	}
}

// TestRefusesOverflowingPathSums: each weight is legal, their sum reaches
// graph.Inf, and d(0,2) used to come back as exactly that — "unreachable"
// — from the kernel and from the reference it is checked against.
func TestRefusesOverflowingPathSums(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1, 1<<60)
	g.MustAddEdge(1, 2, 1<<60)
	if _, err := compute.APSP(g, compute.Opts{}); !errors.Is(err, graph.ErrPathOverflow) {
		t.Errorf("err = %v, want graph.ErrPathOverflow", err)
	}
}

// resultHash is FNV-64a over (dist, hops, parent) as little-endian 64-bit
// words, cell by cell in row order: the int32 columns widen back to the
// 24-byte record the hashes were first taken over.
func resultHash(res *compute.Result) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for c, d := range res.Dist {
		binary.LittleEndian.PutUint64(b[0:], uint64(d))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(res.Hops[c])))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(res.Parent[c])))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestKernelsPinned holds the kernel to one hash of its matrices, parents
// included. The parents are Step 9's — the smallest-ID tight neighbour —
// so the hash is of that rule, not of any queue's pop order among equal
// keys (DESIGN.md, "One kernel, per source", has its history). The
// zero-heavy weights give ties for the rule to break.
func TestKernelsPinned(t *testing.T) {
	g := graph.ZeroHeavy(150, 900, 0.4, graph.GenOpts{Seed: 18, MaxW: 9, Directed: true})
	res, err := compute.APSP(g, compute.Opts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultHash(res), uint64(0x55deb158d97feed2); got != want {
		t.Errorf("FNV-64a of (dist, hops, parent) = %#016x, want %#016x", got, want)
	}
}

// TestAllocsIndependentOfSize is the deterministic form of the ledger's
// compute.alloc_mb_per_op: for a fixed worker count APSP makes the same
// number of allocations whatever n and k are — flat matrices, one slab of
// per-worker scratch, the essential-arc slab and its per-node counts, one
// set of goroutines — never one per source or row. Queues come from a pool and keep their buckets' capacity, so
// after AllocsPerRun's warm-up call a queue allocates nothing. Each size
// keeps the cheapest of many single calls, as congest's plane test does:
// the runtime's own occasional allocations only add, and so does a queue
// the pool dropped — at a collection, and under the race detector at
// random, a quarter of all returns, so that with three workers fewer than
// half of the calls find all three queues.
func TestAllocsIndependentOfSize(t *testing.T) {
	var base float64
	for _, n := range []int{72, 150} {
		g := graph.Random(n, 4*n, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true})
		for _, sources := range [][]int{allSources(n), allSources(n / 4)} {
			allocs := math.Inf(1)
			for try := 0; try < 25; try++ {
				allocs = min(allocs, testing.AllocsPerRun(1, func() {
					if _, err := compute.APSP(g, compute.Opts{Sources: sources, Workers: 3}); err != nil {
						t.Fatal(err)
					}
				}))
			}
			if base == 0 {
				base = allocs
			}
			if allocs != base {
				t.Errorf("n=%d k=%d: %v allocations, n=72 k=72 made %v", n, len(sources), allocs, base)
			}
		}
	}
}

// TestDeterministicAcrossWorkers pins the determinism contract: the same
// matrices regardless of worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := graph.Random(48, 48*10, graph.GenOpts{Seed: 11, MaxW: 9, ZeroFrac: 0.2, Directed: true})
	base, err := compute.APSP(g, compute.Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8, 64} {
		got, err := compute.APSP(g, compute.Opts{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for c := range base.Dist {
			if base.Dist[c] != got.Dist[c] || base.Hops[c] != got.Hops[c] || base.Parent[c] != got.Parent[c] {
				t.Fatalf("workers=%d diverges at (%d,%d)", w, c/g.N(), c%g.N())
			}
		}
	}
}

// essentialTestGraph is dense and zero-heavy, with parallel arcs beside a
// third of its arcs — one of equal weight, one a unit heavier and one a
// unit lighter when that is not negative — so that rows tie on zero
// weights and on duplicate arcs, and some arcs lose to their own twin.
// graph.AddEdge refuses self-loops, so no graph the kernel sees has one.
func essentialTestGraph() *graph.Graph {
	base := graph.ZeroHeavy(40, 40*24, 0.4, graph.GenOpts{Seed: 31, MaxW: 3, Directed: true})
	g := graph.New(base.N(), true)
	for i, e := range base.Edges() {
		g.MustAddEdge(e.From, e.To, e.W)
		if i%3 == 0 {
			g.MustAddEdge(e.From, e.To, e.W)
			g.MustAddEdge(e.From, e.To, e.W+1)
			if e.W > 0 {
				g.MustAddEdge(e.From, e.To, e.W-1)
			}
		}
	}
	return g
}

// TestEssentialArcsExact: a row relaxes only the arcs that finished rows
// proved essential for their sources, and that must not change a cell.
// Every source, a subset, and a subset with a repeated source (two
// workers may finish the same row and race to record it), each under 1,
// 2 and 8 workers: the cells equal the single worker's, whose dist and
// hops match the sequential references, and every parent is Step 9's
// brute-force smallest tight neighbour.
func TestEssentialArcsExact(t *testing.T) {
	g := essentialTestGraph()
	n := g.N()
	edges := g.Edges()
	sets := map[string][]int{
		"all":      allSources(n),
		"subset":   {39, 3, 17, 8, 30, 1, 22, 11},
		"repeated": {5, 12, 5, 0, 5, 27, 12},
	}
	for name, sources := range sets {
		base, err := compute.APSP(g, compute.Opts{Sources: sources, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSequential(t, g, base)
		for i, src := range sources {
			row := base.Parent[i*n : (i+1)*n]
			want := step9Parents(edges, true, n, src, base.Dist[i*n:(i+1)*n], base.Hops[i*n:(i+1)*n])
			for v := range want {
				if row[v] != want[v] {
					t.Fatalf("%s: parent[%d][%d] = %d, smallest tight neighbour %d", name, src, v, row[v], want[v])
				}
			}
		}
		for _, w := range []int{2, 8} {
			got, err := compute.APSP(g, compute.Opts{Sources: sources, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for c := range base.Dist {
				if base.Dist[c] != got.Dist[c] || base.Hops[c] != got.Hops[c] || base.Parent[c] != got.Parent[c] {
					t.Fatalf("%s: workers=%d diverges from workers=1 at (%d,%d)", name, w, sources[c/n], c%n)
				}
			}
		}
	}
}

// withRing adds the arcs v → v+1 (mod n) of weight w, which makes a
// directed graph strongly connected: every node reaches every other.
func withRing(g *graph.Graph, w int64) *graph.Graph {
	for v := 0; v < g.N(); v++ {
		g.MustAddEdge(v, (v+1)%g.N(), w)
	}
	return g
}

// withSource adds a node of in-degree 0 with arcs to every third node:
// no other row reaches it.
func withSource(g *graph.Graph) *graph.Graph {
	h := graph.New(g.N()+1, true)
	for _, e := range g.Edges() {
		h.MustAddEdge(e.From, e.To, e.W)
	}
	for v := 0; v < g.N(); v += 3 {
		h.MustAddEdge(g.N(), v, int64(v%4))
	}
	return h
}

// TestArcCutExact holds the arc cut to the references on both sides of
// its switch. A scan stops at the queue's live-key bound only once a row
// has reached every node, so on the strongly connected shapes — random
// arcs, zero-heavy, near-complete, and parallel arcs of equal weight —
// it cuts in every row, and with one node of in-degree 0 in none but
// that node's own. Under 1, 2 and 8 workers the cells equal core.Run's
// dist, hops and parents, the single worker's also match graph.Dijkstra,
// graph.HHopDistHops and core.WalkParents, and each shape's unreachable
// cells say which side of the switch its rows ran on.
func TestArcCutExact(t *testing.T) {
	shapes := map[string]struct {
		g        *graph.Graph
		cutsRows int // rows that reach every node
	}{
		"strongly-connected": {withRing(graph.Random(28, 28*6, graph.GenOpts{Seed: 41, MaxW: 9, Directed: true}), 9), 28},
		"zero-heavy":         {withRing(graph.ZeroHeavy(28, 28*8, 0.5, graph.GenOpts{Seed: 42, MaxW: 3, Directed: true}), 3), 28},
		"near-complete":      {graph.Complete(18, graph.GenOpts{Seed: 43, MaxW: 6, ZeroFrac: 0.2, Directed: true}), 18},
		"parallel-equal":     {withRing(essentialTestGraph(), 3), 40},
		"in-degree-0":        {withSource(withRing(graph.ZeroHeavy(24, 24*6, 0.4, graph.GenOpts{Seed: 44, MaxW: 5, Directed: true}), 5)), 1},
	}
	for name, s := range shapes {
		g, n := s.g, s.g.N()
		ref, err := core.Run(g, core.Opts{Sources: allSources(n), H: n - 1, Engine: congest.Config{Workers: 2}})
		if err != nil {
			t.Fatalf("%s: core.Run: %v", name, err)
		}
		cuts := 0
		for i := range ref.Dist {
			if !slices.Contains(ref.Dist[i], graph.Inf) {
				cuts++
			}
		}
		if cuts != s.cutsRows {
			t.Fatalf("%s: %d rows reach every node, want %d", name, cuts, s.cutsRows)
		}
		for _, w := range []int{1, 2, 8} {
			res, err := compute.APSP(g, compute.Opts{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				checkAgainstSequential(t, g, res)
			}
			for i := range ref.Dist {
				for v := range ref.Dist[i] {
					c := i*n + v
					if res.Dist[c] != ref.Dist[i][v] || int64(res.Hops[c]) != ref.Hops[i][v] || int(res.Parent[c]) != ref.Parent[i][v] {
						t.Fatalf("%s: workers=%d: (%d,%d) = (%d, %d, %d), core.Run (%d, %d, %d)", name, w, i, v,
							res.Dist[c], res.Hops[c], res.Parent[c], ref.Dist[i][v], ref.Hops[i][v], ref.Parent[i][v])
					}
				}
			}
		}
	}
}
