package compute

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// csr is the adjacency the packed Dijkstra relaxes over, built once per
// APSP call: node v's arcs are to[off[v]:off[v+1]] in g.Out(v) order, each
// with its key increment already shifted (keyLayout.arc). 12 bytes an arc,
// read front to back.
type csr struct {
	off []int
	to  []int32
	inc []uint64
}

func newCSR(g *graph.Graph, lay keyLayout) csr {
	n := g.N()
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + len(g.Out(v))
	}
	c := csr{off: off, to: make([]int32, off[n]), inc: make([]uint64, off[n])}
	for v := 0; v < n; v++ {
		at := off[v]
		for i, e := range g.Out(v) {
			c.to[at+i], c.inc[at+i] = int32(e.To), lay.arc(e.W)
		}
	}
	return c
}

// packedDijkstra fans the sources out over an atomic counter: each worker
// claims the next unclaimed source (work stealing — a worker that draws
// cheap rows simply claims more of them), relaxes in its own key plane and
// unpacks it into the result row when the row is finished; parents go to
// the result directly. Rows are disjoint and the only shared mutable state
// is the counter, so the matrices are the same for any worker count.
func packedDijkstra(g *graph.Graph, lay keyLayout, res *Result) {
	n := g.N()
	adj := newCSR(g, lay)
	// One slab each for the workers' key planes and heaps. A heap that
	// outgrows its n entries (lazy deletion can hold one per relaxation)
	// reallocates on its own.
	planes := make([]uint64, res.Workers*n)
	heapK := make([]uint64, res.Workers*n)
	heapV := make([]int32, res.Workers*n)
	var next atomic.Int64
	spmd(res.Workers, func(w int) {
		keys := planes[w*n : (w+1)*n]
		h := keyHeap{k: heapK[w*n : w*n : (w+1)*n], v: heapV[w*n : w*n : (w+1)*n]}
		for i := claim(&next); i < len(res.Sources); i = claim(&next) {
			lo, hi := i*n, (i+1)*n
			oneSourcePacked(adj, res.Sources[i], keys, res.Parent[lo:hi], &h)
			lay.unpackRow(keys, res.Dist[lo:hi], res.Hops[lo:hi])
		}
	})
}

// spmd runs body(0), …, body(workers−1) concurrently — body(0) on the
// calling goroutine — and returns when all have returned.
func spmd(workers int, body func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	body(0)
	wg.Wait()
}

// claim draws the next ticket (0, 1, 2, …) from a shared counter; workers
// that loop on it until it passes their task count share the tasks.
func claim(next *atomic.Int64) int { return int(next.Add(1)) - 1 }

// oneSourcePacked fills one row. Key order is lexicographic (dist, hops)
// order, which stays monotone under relaxation because weights are
// non-negative: (d+w, l+1) > (d, l). That makes the computed hops exactly
// the minimal hop count among minimum-distance paths — the quantity the
// pipelined CONGEST family records — and every recorded parent tight in
// both dist and hops. Entries are pushed on strict improvement only, so
// each reachable node is expanded exactly once (stale heap entries compare
// unequal and are skipped).
func oneSourcePacked(adj csr, src int, keys []uint64, parent []int32, h *keyHeap) {
	for v := range keys {
		keys[v] = infKey
		parent[v] = -1
	}
	keys[src], parent[src] = 0, int32(src)
	h.push(0, int32(src))
	for len(h.k) > 0 {
		k, v := h.pop()
		if k != keys[v] {
			continue // stale entry, already improved
		}
		to, inc := adj.to[adj.off[v]:adj.off[v+1]], adj.inc[adj.off[v]:adj.off[v+1]]
		for a, u := range to {
			if nk := k + inc[a]; nk < keys[u] {
				keys[u], parent[u] = nk, v
				h.push(nk, u)
			}
		}
	}
}

// keyHeap is a 4-ary min-heap over (key, node) entries: sift-down does one
// extra compare per level but the tree is half as deep as a binary one,
// and the four children share a cache line. Entries are never decreased in
// place — improvements push a fresh entry and stale ones are skipped on
// pop (lazy deletion), so the heap is two flat slices with no position
// index. The sift rules decide which of several equal keys leaves first,
// and with it which tight predecessor a row records as parent
// (TestKernelsPinned): sift up while strictly smaller than the parent,
// sift down to the first smallest child while it is strictly smaller. The
// moving entry is held out and written once rather than swapped level by
// level, and the smallest of four children is found without branches — the
// compares are data-dependent coin flips, and mispredicting them was most
// of a pop.
type keyHeap struct {
	k []uint64
	v []int32
}

func (h *keyHeap) push(k uint64, v int32) {
	h.k = append(h.k, k)
	h.v = append(h.v, v)
	i := len(h.k) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if k >= h.k[p] {
			break
		}
		h.k[i], h.v[i] = h.k[p], h.v[p]
		i = p
	}
	h.k[i], h.v[i] = k, v
}

// pop removes and returns the smallest entry.
func (h *keyHeap) pop() (uint64, int32) {
	topK, topV := h.k[0], h.v[0]
	last := len(h.k) - 1
	k, v := h.k[last], h.v[last]
	h.k, h.v = h.k[:last], h.v[:last]
	if last == 0 {
		return topK, topV
	}
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		m, mk := first, h.k[first]
		if first+4 <= last {
			// All four children: a branch-free tournament. Strict
			// compares send ties left, to the first smallest.
			c := h.k[first : first+4 : first+4]
			l, r := b2i(c[1] < c[0]), b2i(c[3] < c[2])
			lk, rk := min(c[0], c[1]), min(c[2], c[3])
			right := b2i(rk < lk)
			m, mk = first+[2]int{l, 2 + r}[right&1], min(lk, rk)
		} else {
			for c := first + 1; c < last; c++ {
				if h.k[c] < mk {
					m, mk = c, h.k[c]
				}
			}
		}
		if mk >= k {
			break
		}
		h.k[i], h.v[i] = mk, h.v[m]
		i = m
	}
	h.k[i], h.v[i] = k, v
	return topK, topV
}

// b2i is 1 for true, 0 for false; it compiles to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
