package compute

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// A packed key is one (dist, hops) pair in a machine word, dist<<shift |
// hops — Algorithm 1's κ = d·γ + l with γ = 2^shift. While no hop sum
// reaches γ, integer order on keys is the lexicographic (dist, hops)
// order and adding two keys adds both components, so the kernel compares
// once and adds once per relaxation.
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
// ErrKeyRange, a graph that does not pack: one where some sum the kernel
// forms could reach infKey. maxPath bounds the weight of a simple path,
// (n−1)·maxW (graph.MaxPathWeight).
//
// Every finished entry is the key of a simple path: at most n−1 hops and
// at most maxPath weight. The kernel forms one kind of sum, a finished
// entry plus one arc, so no hop sum exceeds n and no key exceeds
// (maxPath+maxW)<<shift | n, which stays below 2^61 and so below infKey.
// The field and the limit are wider than that bound needs: 2^shift ≥ 4n
// and maxPath < 2^(60−shift) leave room for sums of three finished
// entries, which the blocked Floyd–Warshall this package used to carry
// formed. They stay so on purpose: narrowing either would move the n and
// the weight at which a graph is refused with ErrKeyRange, which
// TestRepresentationBoundaries (n = 64 and 65) and FuzzParallelDijkstra's
// seeds pin — a change of behaviour, not of proof, for a change of its own.
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
