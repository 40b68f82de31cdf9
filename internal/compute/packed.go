package compute

import (
	"math/bits"
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
// the result directly. A finished row also teaches later rows which of its
// source's arcs they need (essentialArcs). Rows are disjoint, and what one
// row learns changes how much a later row scans, never what it computes,
// so the matrices are the same for any worker count.
func packedDijkstra(g *graph.Graph, lay keyLayout, res *Result) {
	n := g.N()
	adj := newCSR(g, lay)
	ess := newEssentialArcs(adj)
	planes := make([]uint64, res.Workers*n)
	var next atomic.Int64
	spmd(res.Workers, func(w int) {
		keys := planes[w*n : (w+1)*n]
		q := queues.Get().(*radixQueue)
		defer queues.Put(q)
		for i := claim(&next); i < len(res.Sources); i = claim(&next) {
			lo, hi := i*n, (i+1)*n
			src := res.Sources[i]
			oneSourcePacked(adj, ess, src, keys, res.Parent[lo:hi], q)
			ess.learn(adj, src, keys)
			lay.unpackRow(keys, res.Dist[lo:hi], res.Hops[lo:hi])
		}
	})
}

// essentialArcs records, per node s whose row has finished, the arcs of s
// that a shortest path can use. Row keys are lexicographic (dist, hops)
// minima, and a suffix of a minimal path is itself minimal, so an arc
// (s,u) of key (w, 1) can be tight in any row only if (w, 1) is s's own
// final key for u: the "essential subgraph" of Karger, Koller and
// Phillips and of McGeoch. If some s⇝u path P had a smaller key, a row r
// reaching u over (s,u) would do better over r⇝s then P — and removing
// the cycles of that walk only lowers its key, since every cycle weighs
// at least 0 and has at least one hop. So every arc that sets a final key
// or ties for a Step 9 parent is essential; the others only ever set
// tentative keys that a tight arc overwrites, and a row that relaxes only
// the essential arcs of a learned node computes the same keys and
// parents. Packed keys never overflow (key.go), so the test is an exact
// integer compare.
//
// Node s's list is pos[off[s] : off[s]+count[s]], positions into the
// csr: one slab of 4 bytes an arc per call, a third of what copies of the
// (to, inc) pairs would hold. count[s] is unlearned until a worker claims
// s, claimed while that worker writes the list, then the list's length,
// published by an atomic store: a reader that loads a length sees the
// list written. The claim keeps two workers that finish a repeated source
// from writing the same region. Only requested sources are learned.
type essentialArcs struct {
	count []atomic.Int32
	pos   []int32
}

const (
	unlearned = -1
	claimed   = -2
)

func newEssentialArcs(adj csr) essentialArcs {
	e := essentialArcs{count: make([]atomic.Int32, len(adj.off)-1), pos: make([]int32, len(adj.to))}
	for s := range e.count {
		e.count[s].Store(unlearned)
	}
	return e
}

// learn records src's essential arcs from its finished key row.
func (e essentialArcs) learn(adj csr, src int, keys []uint64) {
	if !e.count[src].CompareAndSwap(unlearned, claimed) {
		return // learned, or being learned by another worker
	}
	lo := adj.off[src]
	c := lo
	for p := lo; p < adj.off[src+1]; p++ {
		if keys[adj.to[p]] == adj.inc[p] {
			e.pos[c] = int32(p)
			c++
		}
	}
	e.count[src].Store(int32(c - lo))
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
// each reachable node is expanded exactly once (stale queue entries compare
// unequal and are skipped).
//
// The parent is Algorithm 1's Step 9 choice, the smallest-ID neighbour
// that delivers the final (dist, hops) — the rule core.List.Offer keeps.
// Every such neighbour p has key[p] < key[u] (an arc adds a hop), so p is
// expanded before u and its arc to u is scanned — a tight arc is
// essential, so a learned p keeps it — whatever order the queue pops
// equal keys in: the tie branch below sees each one.
func oneSourcePacked(adj csr, ess essentialArcs, src int, keys []uint64, parent []int32, q *radixQueue) {
	for v := range keys {
		keys[v] = infKey
		parent[v] = -1
	}
	keys[src], parent[src] = 0, int32(src)
	q.last = 0
	q.push(0, int32(src))
	for q.size > 0 {
		k, v := q.pop()
		if k != keys[v] {
			continue // stale entry, already improved
		}
		lo := adj.off[v]
		if c := ess.count[v].Load(); c >= 0 {
			// v's row has finished: relax only the arcs it proved
			// essential. The branch body is the loop's below.
			for _, p := range ess.pos[lo : lo+int(c)] {
				if u, nk := adj.to[p], k+adj.inc[p]; nk <= keys[u] {
					if nk < keys[u] {
						keys[u], parent[u] = nk, v
						q.push(nk, u)
					} else if v < parent[u] {
						parent[u] = v
					}
				}
			}
			continue
		}
		to, inc := adj.to[lo:adj.off[v+1]], adj.inc[lo:adj.off[v+1]]
		for a, u := range to {
			// One compare decides the common case, an arc that does
			// not tie or improve: on dense rows that is nearly every arc.
			if nk := k + inc[a]; nk <= keys[u] {
				if nk < keys[u] {
					keys[u], parent[u] = nk, v
					q.push(nk, u)
				} else if v < parent[u] {
					parent[u] = v
				}
			}
		}
	}
}

// radixQueue is a monotone priority queue over packed keys (a radix heap):
// it needs every push to be at least the last key popped, which the kernel
// guarantees — a pushed key is a popped one plus an arc's w<<shift | 1.
// An entry lives in bucket bits.Len64(k ^ last), so bucket 0 holds keys
// equal to the last pop and bucket i keys that first differ from it at bit
// i−1; keys stay below infKey = 2^62, so 63 buckets cover them. pop takes
// from bucket 0 and, when that is empty, moves the lowest non-empty
// bucket's minimum into last and redistributes that bucket into lower
// ones, so an entry moves down at most 62 times over its life. Improvements
// push a fresh entry and stale ones are skipped on pop (lazy deletion).
// Buckets keep their capacity from row to row, and queues are recycled
// across calls (queues), so a warm queue allocates nothing.
type radixQueue struct {
	last uint64
	size int
	b    [63][]qEntry
}

type qEntry struct {
	k uint64
	v int32
}

// queues recycles radixQueues, buckets and all, across APSP calls.
var queues = sync.Pool{New: func() any { return new(radixQueue) }}

func (q *radixQueue) push(k uint64, v int32) {
	i := bits.Len64(k ^ q.last)
	q.b[i] = append(q.b[i], qEntry{k, v})
	q.size++
}

// pop removes and returns an entry with the smallest key; among equal
// keys the order is unspecified. The queue must not be empty.
func (q *radixQueue) pop() (uint64, int32) {
	if len(q.b[0]) == 0 {
		i := 1
		for len(q.b[i]) == 0 {
			i++
		}
		b := q.b[i]
		m := b[0].k
		for _, e := range b[1:] {
			m = min(m, e.k)
		}
		q.last = m
		for _, e := range b {
			j := bits.Len64(e.k ^ m)
			q.b[j] = append(q.b[j], e)
		}
		q.b[i] = b[:0]
	}
	b0 := q.b[0]
	e := b0[len(b0)-1]
	q.b[0] = b0[:len(b0)-1]
	q.size--
	return e.k, e.v
}
