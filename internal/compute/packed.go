package compute

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// csr is the adjacency the packed Dijkstra relaxes over, built once per
// APSP call: node v's arcs are to[off[v]:off[v+1]], each with its key
// increment already shifted (keyLayout.arc), in ascending order of
// increment, so a scan can stop at the first arc too heavy to matter
// (radixQueue.bound). 12 bytes an arc, read front to back.
type csr struct {
	off []int
	to  []int32
	inc []uint64
}

// newCSR sizes the adjacency of g; fill writes the arcs.
func newCSR(g *graph.Graph) csr {
	n := g.N()
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + len(g.Out(v))
	}
	return csr{off: off, to: make([]int32, off[n]), inc: make([]uint64, off[n])}
}

// fill writes the arcs of nodes lo, …, hi−1, each node's sorted by
// increment. An increment is w<<shift | 1 and a head is below n < 2^shift,
// so w<<shift | head is one word that orders as the increment does (ties
// by head): sorting those words in place in the inc column sorts a
// node's arcs with no scratch and no comparison function.
func (c csr) fill(g *graph.Graph, lay keyLayout, lo, hi int) {
	mask := uint64(1)<<lay.shift - 1
	for v := lo; v < hi; v++ {
		at := c.off[v]
		arcs := c.inc[at:c.off[v+1]]
		for i, e := range g.Out(v) {
			arcs[i] = lay.arc(e.W)&^mask | uint64(e.To)
		}
		slices.Sort(arcs)
		for i, x := range arcs {
			c.to[at+i], arcs[i] = int32(x&mask), x&^mask|1
		}
	}
}

// packedDijkstra fans the sources out over an atomic counter: each worker
// claims the next unclaimed source (work stealing — a worker that draws
// cheap rows simply claims more of them), relaxes in its own key plane and
// unpacks it into the result row when the row is finished; parents go to
// the result directly. The workers first fill the adjacency, a share of
// the nodes each, and no row starts before every node's arcs are in. A
// finished row also teaches later rows which of its source's arcs they
// need (essentialArcs). Rows are disjoint, and what one row learns
// changes how much a later row scans, never what it computes, so the
// matrices are the same for any worker count.
func packedDijkstra(g *graph.Graph, lay keyLayout, res *Result) {
	n, workers := g.N(), res.Workers
	adj := newCSR(g)
	ess := newEssentialArcs(adj)
	planes := make([]uint64, workers*n)
	var work struct { // one struct, so the workers share one heap object
		filled sync.WaitGroup // every node's arcs are in adj
		next   atomic.Int64   // the next unclaimed row
	}
	work.filled.Add(workers)
	spmd(workers, func(w int) {
		adj.fill(g, lay, w*n/workers, (w+1)*n/workers)
		work.filled.Done()
		work.filled.Wait()
		q := queues.Get().(*radixQueue)
		q.keys = planes[w*n : (w+1)*n]
		for i := claim(&work.next); i < len(res.Sources); i = claim(&work.next) {
			lo, hi := i*n, (i+1)*n
			src := res.Sources[i]
			oneSourcePacked(adj, ess, src, res.Parent[lo:hi], q)
			ess.learn(adj, src, q.keys)
			lay.unpackRow(q.keys, res.Dist[lo:hi], res.Hops[lo:hi])
		}
		q.keys = nil // a pooled queue holds no call's plane
		queues.Put(q)
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
// csr in ascending order, so sorted by increment as the csr is: one slab
// of 4 bytes an arc per call, a third of what copies of the (to, inc)
// pairs would hold. count[s] is unlearned until a worker claims
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

// oneSourcePacked fills one row, the keys in q's plane and the parents
// in parent. Key order is lexicographic (dist, hops) order, which stays
// monotone under relaxation because weights are non-negative:
// (d+w, l+1) > (d, l). That makes the computed hops exactly
// the minimal hop count among minimum-distance paths — the quantity the
// pipelined CONGEST family records — and every recorded parent tight in
// both dist and hops. Entries are pushed on strict improvement only, so
// each reachable node is expanded exactly once (the queue drops stale
// entries, whose key the plane no longer holds).
//
// The parent is Algorithm 1's Step 9 choice, the smallest-ID neighbour
// that delivers the final (dist, hops) — the rule core.List.Offer keeps.
// Every such neighbour p has key[p] < key[u] (an arc adds a hop), so p is
// expanded before u and its arc to u is scanned — a tight arc is
// essential, so a learned p keeps it, and it is not past the cut —
// whatever order the queue pops equal keys in: the tie branch below sees
// each one.
//
// The cut: once every node is reached (unreached counts the others down
// as their infKey is first replaced; bit 62 of a key is set only on
// infKey), a scan stops at the first arc whose key exceeds the queue's
// bound. A settled head's key is at most k, below any k + inc; an
// unsettled head's one live entry is at most the bound; keys only fall.
// So such an arc can neither improve a key nor tie for a parent, now or
// later, and the arcs after it are heavier still: a node's arcs are
// sorted by increment, and a learned list keeps their order. Until the
// last node is reached the bound is all ones and the scan runs every arc.
func oneSourcePacked(adj csr, ess essentialArcs, src int, parent []int32, q *radixQueue) {
	keys := q.keys
	for v := range keys {
		keys[v] = infKey
		parent[v] = -1
	}
	keys[src], parent[src] = 0, int32(src)
	unreached := len(keys) - 1
	q.reset()
	q.push(infKey, 0, int32(src))
	for {
		k, v, ok := q.pop()
		if !ok {
			return
		}
		bound := ^uint64(0)
		if unreached == 0 {
			bound = q.bound()
		}
		lo := adj.off[v]
		if c := ess.count[v].Load(); c >= 0 {
			// v's row has finished: relax only the arcs it proved
			// essential. The loop is the one below.
			for _, p := range ess.pos[lo : lo+int(c)] {
				u, nk := adj.to[p], k+adj.inc[p]
				if nk > bound {
					break
				}
				if ku := keys[u]; nk <= ku {
					if nk < ku {
						unreached -= int(ku >> 62)
						keys[u], parent[u] = nk, v
						q.push(ku, nk, u)
					} else if v < parent[u] {
						parent[u] = v
					}
				}
			}
			continue
		}
		to, inc := adj.to[lo:adj.off[v+1]], adj.inc[lo:adj.off[v+1]]
		for a, u := range to {
			nk := k + inc[a]
			if nk > bound {
				break // the cut: this arc and every later one are too heavy
			}
			// One compare decides the common case, an arc that does
			// not tie or improve: on dense rows that is nearly every arc.
			if ku := keys[u]; nk <= ku {
				if nk < ku {
					unreached -= int(ku >> 62)
					keys[u], parent[u] = nk, v
					q.push(ku, nk, u)
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
// from bucket 0 and, when that is empty, moves the lowest bucket's
// smallest live key into last and redistributes that bucket's live
// entries into lower ones, so an entry moves down at most 62 times over
// its life. An improvement pushes a fresh entry; the old one goes stale,
// and refill drops it when it meets it (lazy deletion), reading liveness
// off the row's key plane: an entry (k, v) is live iff keys[v] == k, and
// each node has at most one live entry. Buckets keep their capacity from row
// to row, and queues are recycled across calls (queues), so a warm queue
// allocates nothing.
//
// The live counts, kept from a row's first bound call to its end, say how
// many live entries each bucket holds; bit i of occupied is set iff
// live[i] > 0, so the highest bucket with a live entry is one bit scan.
type radixQueue struct {
	last     uint64
	size     int      // entries held, live or stale
	keys     []uint64 // the row's key plane
	counting bool
	occupied uint64
	live     [63]int32
	b        [63][]qEntry
}

type qEntry struct {
	k uint64
	v int32
}

// queues recycles radixQueues, buckets and all, across APSP calls.
var queues = sync.Pool{New: func() any { return new(radixQueue) }}

// reset starts a row: the queue must be empty.
func (q *radixQueue) reset() { q.last, q.counting = 0, false }

// push adds v's entry of key k, which takes over as v's live entry from
// its entry of key old (infKey when v has none).
func (q *radixQueue) push(old, k uint64, v int32) {
	i := bits.Len64(k ^ q.last)
	q.b[i] = append(q.b[i], qEntry{k, v})
	q.size++
	if q.counting {
		q.add(i)
		if old < infKey {
			q.sub(bits.Len64(old ^ q.last))
		}
	}
}

func (q *radixQueue) add(i int) {
	q.live[i]++
	q.occupied |= 1 << i
}

func (q *radixQueue) sub(i int) {
	if q.live[i]--; q.live[i] == 0 {
		q.occupied &^= 1 << i
	}
}

// pop removes and returns a live entry with the smallest key; among equal
// keys the order is unspecified. ok is false when no live entry is left;
// the queue is then empty. Every entry of bucket 0 is live: refill moves
// only live ones there, and one of key last cannot go stale, since no
// push is below last.
func (q *radixQueue) pop() (k uint64, v int32, ok bool) {
	for len(q.b[0]) == 0 {
		if q.size == 0 {
			return 0, 0, false
		}
		q.refill()
	}
	b0 := q.b[0]
	e := b0[len(b0)-1]
	q.b[0] = b0[:len(b0)-1]
	q.size--
	if q.counting {
		q.sub(0)
	}
	return e.k, e.v, true
}

// refill empties the lowest non-empty bucket above 0: it drops the
// bucket's stale entries, moves the smallest live key into last and
// redistributes the live entries below it. A bucket of stale entries
// only is emptied and last stays.
func (q *radixQueue) refill() {
	i := 1
	for len(q.b[i]) == 0 {
		i++
	}
	b := q.b[i]
	q.b[i] = b[:0]
	q.size -= len(b)
	live, m := b[:0], infKey
	for _, e := range b {
		if q.keys[e.v] == e.k {
			live = append(live, e)
			m = min(m, e.k)
		}
	}
	if len(live) == 0 {
		return
	}
	q.last = m
	q.size += len(live)
	if q.counting {
		q.live[i] = 0
		q.occupied &^= 1 << i
	}
	for _, e := range live {
		j := bits.Len64(e.k ^ m)
		q.b[j] = append(q.b[j], e)
		if q.counting {
			q.add(j)
		}
	}
}

// bound is at least every live key: with j the highest bucket holding a
// live entry, each live key agrees with last above bit j−1, so it is at
// most last | (2^j − 1); with no live entry it is last. The first call
// in a row starts the live counts (count).
func (q *radixQueue) bound() uint64 {
	if !q.counting {
		q.count()
	}
	return q.last | (uint64(1)<<bits.Len64(q.occupied)-1)>>1
}

// count drops every stale entry and counts the live ones; from here to
// the row's end push, pop and refill keep the counts.
func (q *radixQueue) count() {
	q.counting, q.occupied = true, 0
	for i := range q.b {
		b := q.b[i]
		live := b[:0]
		for _, e := range b {
			if q.keys[e.v] == e.k {
				live = append(live, e)
			}
		}
		q.b[i] = live
		q.size -= len(b) - len(live)
		q.live[i] = int32(len(live))
		if len(live) > 0 {
			q.occupied |= 1 << i
		}
	}
}
