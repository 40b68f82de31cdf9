package compute

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// A packed key is one (dist, hops) pair in a machine word, dist<<shift |
// hops — Algorithm 1's κ = d·γ + l with γ = 2^shift. While no hop sum
// reaches γ, integer order on keys is the lexicographic (dist, hops)
// order and adding two keys adds both components, so the kernels compare
// once and add once per relaxation.
//
// infKey marks "unreachable". Bit 62 rather than the top bit, so that
// infKey + infKey still fits a uint64 and infKey + x ≥ infKey for every
// key x: a candidate formed from an unreachable operand loses every
// comparison without being tested for.
const infKey uint64 = 1 << 62

// keyLayout is the split of the 62 bits below infKey for one graph.
type keyLayout struct {
	shift uint // width of the hop field
}

// layoutFor sizes the hop field for an n-node graph and refuses, with
// ErrKeyRange, a graph that does not pack: one where some sum a kernel
// forms could reach infKey. maxPath bounds the weight of a simple path,
// (n−1)·maxW (graph.MaxPathWeight).
//
// Every finished entry is the key of a simple path: at most n−1 hops and
// at most maxPath weight. Dijkstra adds one arc to a finished entry.
// Blocked Floyd–Warshall adds up to three finished entries: between two
// pivot blocks every entry is finished; inside a block's phases 2 and 3 an
// entry is either still that or the sum of two finished entries — and not
// always the key of a simple path, so its hops can pass n−1: in phase 2
// the closed diagonal operand may already run through pivots the sweep
// has not reached (i→c→v→b→v→j with b, c pivots of the block, b first,
// is what pivot b leaves in (i,j) when i's only arc goes to c). A phase-2
// candidate adds one more closed entry to such a sum. So no hop sum
// exceeds 3(n−1) < 4n ≤ 2^shift, and no key exceeds
// 3·(maxPath<<shift | n−1), which stays below infKey when
// maxPath < 2^(60−shift).
func layoutFor(n int, maxPath int64) (keyLayout, error) {
	lay := keyLayout{shift: uint(bits.Len(uint(4*n - 1)))}
	if maxPath>>(60-lay.shift) != 0 {
		return lay, fmt.Errorf("%w: n=%d, (n-1)·max weight = %d, limit 2^%d", ErrKeyRange, n, maxPath, 60-lay.shift)
	}
	return lay, nil
}

// arc is the key increment of one arc of weight w: (w, 1 hop).
func (lay keyLayout) arc(w int64) uint64 { return uint64(w)<<lay.shift | 1 }

// unpackRow writes a finished key row into a Matrix row: unreachable
// entries become (graph.Inf, -1).
func (lay keyLayout) unpackRow(keys []uint64, dist []int64, hops []int32) {
	mask := uint64(1)<<lay.shift - 1
	for v, k := range keys {
		if k >= infKey {
			dist[v], hops[v] = graph.Inf, -1
		} else {
			dist[v], hops[v] = int64(k>>lay.shift), int32(k&mask)
		}
	}
}
