package graph

import (
	"math/rand"
	"testing"

	"repro/internal/quickcheck"
)

// Property: for every generated graph and source, h-hop distances are
// sandwiched between full shortest-path distances and (h-1)-hop distances,
// and n-hop equals Dijkstra.
func TestQuickHHopSandwich(t *testing.T) {
	f := func(seed int64, nRaw, hRaw uint8) bool {
		n := 5 + int(nRaw%20)
		h := 1 + int(hRaw%10)
		g := Random(n, 3*n, GenOpts{Seed: seed, MaxW: 9, ZeroFrac: 0.3, Directed: seed%2 == 0})
		src := int(uint64(seed) % uint64(n))
		full := Dijkstra(g, src)
		dh := HHopDistances(g, src, h)
		dh1 := HHopDistances(g, src, h+1)
		for v := 0; v < n; v++ {
			if dh[v] < full[v] {
				return false // h-hop better than unrestricted: impossible
			}
			if dh1[v] > dh[v] {
				return false // more hops allowed but worse: impossible
			}
		}
		return true
	}
	quickcheck.Check(t, f, 60)
}

// Property: triangle inequality on APSP output.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		n := 12
		g := Random(n, 30, GenOpts{Seed: seed, MaxW: 7, ZeroFrac: 0.2, Directed: true})
		d := APSP(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d[i][k] < Inf && d[k][j] < Inf && d[i][j] > d[i][k]+d[k][j] {
						return false
					}
				}
			}
		}
		return true
	}
	quickcheck.Check(t, f, 25)
}

// Property: every edge respects d(u,v) <= w(u,v), and d is 0 on the diagonal.
func TestQuickEdgeRelaxed(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(15, 45, GenOpts{Seed: seed, MaxW: 11, ZeroFrac: 0.25, Directed: seed%2 == 1})
		d := APSP(g)
		for i := range d {
			if d[i][i] != 0 {
				return false
			}
		}
		for _, e := range g.Edges() {
			if d[e.From][e.To] > e.W {
				return false
			}
			if !g.Directed() && d[e.To][e.From] > e.W {
				return false
			}
		}
		return true
	}
	quickcheck.Check(t, f, 40)
}

// Property: undirected graphs have symmetric distance matrices.
func TestQuickUndirectedSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(14, 40, GenOpts{Seed: seed, MaxW: 9, ZeroFrac: 0.3})
		d := APSP(g)
		for i := range d {
			for j := range d[i] {
				if d[i][j] != d[j][i] {
					return false
				}
			}
		}
		return true
	}
	quickcheck.Check(t, f, 40)
}

// Property: generators with a fixed seed are pure functions.
func TestQuickGeneratorsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		seed := rng.Int63()
		opts := GenOpts{Seed: seed, MaxW: 13, ZeroFrac: 0.1, Directed: trial%2 == 0}
		a := Gnp(20, 0.15, opts).Edges()
		b := Gnp(20, 0.15, opts).Edges()
		if len(a) != len(b) {
			t.Fatalf("Gnp nondeterministic edge count")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Gnp nondeterministic at edge %d", i)
			}
		}
	}
}
