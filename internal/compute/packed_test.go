package compute

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// zeroPath is the hop field's worst case: 0 → 1 → … → n−1 over zero-weight
// arcs, so hops reach n−1 at distance 0, plus one arc of weight maxW from
// end to end that must lose to them.
func zeroPath(n int, maxW int64) *graph.Graph {
	g := graph.New(n, true)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 0)
	}
	g.MustAddEdge(0, n-1, maxW)
	return g
}

// zeroHeavyUpTo is a half-zero random digraph whose heaviest arc weighs
// exactly maxW.
func zeroHeavyUpTo(n int, maxW int64) *graph.Graph {
	g := graph.ZeroHeavy(n, 5*n, 0.5, graph.GenOpts{Seed: int64(n), MaxW: maxW, Directed: true})
	g.MustAddEdge(n-1, 0, maxW)
	return g
}

// sameCells compares the kernel's (dist, hops) with core.Run's rows.
func sameCells(t *testing.T, what string, a *Result, b *core.Result) {
	t.Helper()
	for i := range b.Dist {
		for v := range b.Dist[i] {
			c := i*a.N + v
			if a.Dist[c] != b.Dist[i][v] || int64(a.Hops[c]) != b.Hops[i][v] {
				t.Fatalf("%s differ at (%d,%d): (%d,%d) vs (%d,%d)", what, i, v,
					a.Dist[c], a.Hops[c], b.Dist[i][v], b.Hops[i][v])
			}
		}
	}
}

func walkAll(t *testing.T, what string, g *graph.Graph, res *Result) {
	t.Helper()
	pv := core.PathView{
		Sources: res.Sources,
		Dist:    func(i, v int) int64 { return res.Dist[i*res.N+v] },
		Hops:    func(i, v int) int64 { return int64(res.Hops[i*res.N+v]) },
		Parent:  func(i, v int) int { return int(res.Parent[i*res.N+v]) },
	}
	for i := range res.Sources {
		for v := 0; v < res.N; v++ {
			if res.Dist[i*res.N+v] >= graph.Inf {
				continue
			}
			if _, err := core.WalkParents(g, pv, i, v); err != nil {
				t.Fatalf("%s: invalid parent tree at (%d,%d): %v", what, i, v, err)
			}
		}
	}
}

// TestRepresentationBoundaries sits on either side of the two limits the
// layout has: the hop field gains a bit between n = 64 and n = 65, and a
// graph stops packing one unit of weight above the largest maxW that fits
// beside it. On the packing side the kernel answers as core.Run does and
// records parents the walker accepts; one unit above, APSP refuses the
// graph by name.
func TestRepresentationBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		lay, _ := layoutFor(n, 0)
		if want := map[int]uint{63: 8, 64: 8, 65: 9}[n]; lay.shift != want {
			t.Fatalf("n=%d: hop field of %d bits, want %d", n, lay.shift, want)
		}
		fits := (int64(1)<<(60-lay.shift) - 1) / int64(n-1)
		for _, maxW := range []int64{fits, fits + 1} {
			for shape, g := range map[string]*graph.Graph{"zero-path": zeroPath(n, maxW), "zero-heavy": zeroHeavyUpTo(n, maxW)} {
				name := fmt.Sprintf("n=%d/maxW=%d/%s", n, maxW, shape)
				if maxW > fits {
					if _, err := APSP(g, Opts{}); !errors.Is(err, ErrKeyRange) {
						t.Fatalf("%s: a graph that does not pack: err = %v, want ErrKeyRange", name, err)
					}
					continue
				}
				ref, err := core.Run(g, core.Opts{Sources: allNodes(n), H: n - 1})
				if err != nil {
					t.Fatalf("%s: core.Run: %v", name, err)
				}
				res, err := APSP(g, Opts{Workers: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameCells(t, name+": APSP and core.Run", res, ref)
				walkAll(t, name, g, res)
			}
		}
	}
}

func allNodes(n int) []int {
	s := make([]int, n)
	for v := range s {
		s[v] = v
	}
	return s
}

// TestRadixQueueMatchesSortedCopy drives the queue with seeded monotone
// scripts — every push at or above the last pop, as the kernel's are —
// over a key plane, and checks it against a sort-a-copy oracle of the
// live entries. Like the kernel, a script improves a pending node: it
// lowers the node's key in the plane and pushes the new key, which
// leaves the old entry stale. After every pop the key is the smallest
// live one and the entry is live and pending: pop never returns a stale
// entry. The scripts push runs of equal keys; half of them start just
// below 2^61, so their keys cross bit 61 — the top bucket, one bit below
// infKey; they sometimes improve every pending node above the last pop
// at once, which leaves whole buckets holding stale entries only, for
// pop to empty and pass; and they drain the queue completely before
// refilling it, both from the last pop and, as a new row does, from the
// start. Once a script has started the live counts (bound), after every
// step bound() is last | (2^j − 1) for the highest bucket j that holds a
// live entry — at least every live key, and no looser.
func TestRadixQueueMatchesSortedCopy(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := uint64(0)
		if seed%2 == 1 {
			base = 1<<61 - 1<<20
		}
		keys := make([]uint64, 3*3000)
		q := &radixQueue{keys: keys}
		q.last = base
		var pending []int32 // nodes with a live entry; keys holds its key
		next := int32(0)
		push := func(k uint64) {
			if k >= infKey {
				t.Fatalf("seed %d: script pushed %#x, not below infKey", seed, k)
			}
			keys[next] = k
			q.push(infKey, k, next)
			pending = append(pending, next)
			next++
		}
		improve := func(v int32, k uint64) {
			old := keys[v]
			keys[v] = k
			q.push(old, k, v)
		}
		popLive := func(step int) uint64 {
			k, v, ok := q.pop()
			if !ok {
				t.Fatalf("seed %d step %d: pop found no entry, %d pending", seed, step, len(pending))
			}
			if keys[v] != k {
				t.Fatalf("seed %d step %d: pop = (%#x, %d), stale: the plane holds %#x", seed, step, k, v, keys[v])
			}
			i := slices.Index(pending, v)
			if i < 0 {
				t.Fatalf("seed %d step %d: pop = (%#x, %d), not pending", seed, step, k, v)
			}
			pending = slices.Delete(pending, i, i+1)
			return k
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 8 || len(pending) == 0:
				// Push at the last pop plus a delta: zero, small, or a
				// span that reaches the high buckets.
				var d uint64
				switch rng.Intn(4) {
				case 1:
					d = uint64(rng.Intn(8))
				case 2:
					d = uint64(rng.Int63n(1 << 20))
				case 3:
					d = uint64(rng.Int63n(int64(infKey-q.last)/4 + 1))
				}
				for reps := 1 + rng.Intn(3); reps > 0; reps-- {
					push(q.last + d) // equal keys when reps > 1
				}
			case r < 11:
				// Improve one pending node to a key in [last, its key).
				if v := pending[rng.Intn(len(pending))]; keys[v] > q.last {
					improve(v, q.last+uint64(rng.Int63n(int64(keys[v]-q.last))))
				}
			case r == 11:
				// Improve every pending node above the last pop to
				// within 8 of it: the buckets they were in hold only
				// stale entries now.
				for _, v := range pending {
					if keys[v] > q.last {
						improve(v, q.last+uint64(rng.Int63n(int64(min(keys[v]-q.last, 8)))))
					}
				}
			case r == 12:
				q.bound() // start the live counts, if they are not on
			case r < 19:
				ks := make([]uint64, len(pending))
				for i, v := range pending {
					ks[i] = keys[v]
				}
				want := slices.Min(ks)
				if k := popLive(step); k != want {
					t.Fatalf("seed %d step %d: pop = %#x, smallest live %#x", seed, step, k, want)
				}
			default:
				// Drain in order, then refill: from the last pop, or
				// from zero as oneSourcePacked starts a row.
				for prev := q.last; len(pending) > 0; {
					k := popLive(step)
					if k < prev {
						t.Fatalf("seed %d step %d: drain popped %#x after %#x", seed, step, k, prev)
					}
					prev = k
				}
				if _, v, ok := q.pop(); ok {
					t.Fatalf("seed %d step %d: drained queue popped node %d", seed, step, v)
				}
				for i := range q.b {
					if q.size != 0 || len(q.b[i]) != 0 {
						t.Fatalf("seed %d step %d: drained queue holds %d entries, %d in bucket %d", seed, step, q.size, len(q.b[i]), i)
					}
				}
				if rng.Intn(2) == 0 {
					q.reset()
					q.last = base
				}
			}
			if q.counting {
				want := q.last
				for _, v := range pending {
					want |= uint64(1)<<bits.Len64(keys[v]^q.last) - 1
				}
				if got := q.bound(); got != want {
					t.Fatalf("seed %d step %d: bound = %#x, want %#x (last %#x)", seed, step, got, want, q.last)
				}
			}
		}
	}
}
