package compute

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// blockTile is the Floyd–Warshall tile edge. A 64×64 tile is 32 KiB of
// keys and 16 KiB of parents — three of them (the (i,k), (k,j) and (i,j)
// panels the inner loop touches) fit in a typical L2 slice, which is the
// whole point of the blocked formulation.
const blockTile = 64

// blockedFloyd runs cache-blocked Floyd–Warshall over the lexicographic
// (dist, hops) semiring, one packed key per cell: path concatenation adds
// both components, and comparison is lexicographic. Componentwise addition
// is monotone with respect to that order, so the classic FW induction
// carries over and the final matrices are the same (dist, hops) minima
// Dijkstra computes.
//
// The tiling is the standard three-phase scheme: for each pivot block kb,
// (1) the diagonal tile (kb,kb) is closed in place, (2) the pivot row and
// pivot column panels update against it, (3) every remaining tile updates
// against its pivot-row and pivot-column panels. Phases 2 and 3 are
// embarrassingly parallel across tiles: every worker walks the same phase
// sequence, claims tiles from the phase's ticket counter, and meets the
// others at a barrier before the next phase.
func blockedFloyd(g *graph.Graph, lay keyLayout, res *Result) {
	n := g.N()
	keys := make([]uint64, n*n)
	parent := make([]int32, n*n)
	for i := range keys {
		keys[i], parent[i] = infKey, -1
	}
	for v := 0; v < n; v++ {
		row := v * n
		keys[row+v], parent[row+v] = 0, int32(v)
		for _, e := range g.Out(v) {
			// Parallel arcs all carry one hop, so the strict compare
			// keeps the first of the lightest.
			if k := lay.arc(e.W); k < keys[row+e.To] {
				keys[row+e.To], parent[row+e.To] = k, int32(v)
			}
		}
	}

	b := min(blockTile, n)
	nb := (n + b - 1) / b
	tile := func(ib, jb, kb int) {
		floydTile(keys, parent, n,
			ib*b, min((ib+1)*b, n),
			jb*b, min((jb+1)*b, n),
			kb*b, min((kb+1)*b, n))
	}
	// Ticket counters: two parallel phases per pivot block, then the rows.
	next := make([]atomic.Int64, 2*nb+1)
	bar := newBarrier(res.Workers)
	spmd(res.Workers, func(w int) {
		for kb := 0; kb < nb; kb++ {
			if w == 0 {
				tile(kb, kb, kb)
			}
			bar.wait()
			for t := claim(&next[2*kb]); t < 2*(nb-1); t = claim(&next[2*kb]) {
				ob := t / 2
				if ob >= kb {
					ob++
				}
				if t%2 == 0 {
					tile(kb, ob, kb) // pivot-row panel
				} else {
					tile(ob, kb, kb) // pivot-column panel
				}
			}
			bar.wait()
			for t := claim(&next[2*kb+1]); t < (nb-1)*(nb-1); t = claim(&next[2*kb+1]) {
				ib, jb := t/(nb-1), t%(nb-1)
				if ib >= kb {
					ib++
				}
				if jb >= kb {
					jb++
				}
				tile(ib, jb, kb)
			}
			bar.wait()
		}
		for i := claim(&next[2*nb]); i < len(res.Sources); i = claim(&next[2*nb]) {
			row, lo, hi := res.Sources[i]*n, i*n, (i+1)*n
			lay.unpackRow(keys[row:row+n], res.Dist[lo:hi], res.Hops[lo:hi])
			copy(res.Parent[lo:hi], parent[row:row+n])
		}
	})
}

// floydTile relaxes the (i,j) tile through pivots [kLo,kHi). The loop
// nest is k-outer so the (k,j) pivot row streams sequentially and the
// (i,j) destination row stays hot across j. An unreachable (k,j) needs no
// test: infKey + x loses the comparison (key.go).
func floydTile(keys []uint64, parent []int32, n, iLo, iHi, jLo, jHi, kLo, kHi int) {
	w := jHi - jLo
	for k := kLo; k < kHi; k++ {
		kk := keys[k*n+jLo:][:w]
		kp := parent[k*n+jLo:][:w]
		for i := iLo; i < iHi; i++ {
			ik := keys[i*n+k]
			if ik >= infKey || i == k {
				continue
			}
			relaxRow(ik, kk, kp, keys[i*n+jLo:][:w], parent[i*n+jLo:][:w])
		}
	}
}

// relaxRow offers ik + kk[j] to row[j] for every j, copying the pivot
// row's parent where it wins. The slices have equal lengths; re-slicing
// them to one length leaves one bounds check a cell instead of four. The
// body is unrolled by four (measured: a third faster than the plain loop,
// and faster than check-free variants that advance four slice headers or
// store unconditionally).
func relaxRow(ik uint64, kk []uint64, kp []int32, row []uint64, rp []int32) {
	w := len(row)
	kk, kp, rp = kk[:w], kp[:w], rp[:w]
	j := 0
	for ; j+4 <= w; j += 4 {
		if c := ik + kk[j]; c < row[j] {
			row[j], rp[j] = c, kp[j]
		}
		if c := ik + kk[j+1]; c < row[j+1] {
			row[j+1], rp[j+1] = c, kp[j+1]
		}
		if c := ik + kk[j+2]; c < row[j+2] {
			row[j+2], rp[j+2] = c, kp[j+2]
		}
		if c := ik + kk[j+3]; c < row[j+3] {
			row[j+3], rp[j+3] = c, kp[j+3]
		}
	}
	for ; j < w; j++ {
		if c := ik + kk[j]; c < row[j] {
			row[j], rp[j] = c, kp[j]
		}
	}
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

// barrier is a reusable rendezvous: wait returns once all n goroutines of
// the round have called it.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, here int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.here++; b.here == b.n {
		b.here = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for r := b.round; r == b.round; {
		b.cond.Wait()
	}
}
