package shortrange

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestSingleSourceExactSSSP(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(30, 90, graph.GenOpts{Seed: seed, MaxW: 7, ZeroFrac: 0.3, Directed: seed%2 == 0})
		res, err := SingleSource(g, 0, 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.Dijkstra(g, 0)
		for v := 0; v < g.N(); v++ {
			if res.Dist[0][v] != want[v] {
				t.Fatalf("seed %d: dist[%d] = %d, want %d", seed, v, res.Dist[0][v], want[v])
			}
		}
	}
}

func TestSnapshotWithinHHopClaim(t *testing.T) {
	// Lemma II.15's content: by round ⌈Δ√h⌉+h (here Δ is folded into γ=√h
	// for the as-written algorithm, so the snapshot round is ⌈γ⌉+h... the
	// implementation snapshots at ⌈Δγ⌉+h with Δ=1) estimates should be at
	// most the h-hop distance. With Δ=1 the claim is only meaningful for
	// unit-ish distances, so here we run the k-source form with the real Δ.
	violations := 0
	checked := 0
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(26, 78, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.3, Directed: true})
		sources := []int{0, 9, 17}
		h := 6
		delta := graph.HHopDelta(g, sources, h)
		if delta == 0 {
			continue
		}
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, s := range sources {
			want := graph.HHopDistances(g, s, h)
			for v := 0; v < g.N(); v++ {
				if want[v] >= graph.Inf {
					continue
				}
				checked++
				if res.Snap[i][v] > want[v] {
					violations++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
	// The claim is measured, not assumed: report and fail only if it is
	// grossly false (>20% violations would mean the schedule is broken).
	t.Logf("snapshot claim: %d/%d estimates above their h-hop distance at the claimed round", violations, checked)
	if violations*5 > checked {
		t.Fatalf("snapshot claim grossly violated: %d/%d", violations, checked)
	}
}

func TestCongestionBound(t *testing.T) {
	// Single-source congestion claim: at most √h messages per link
	// direction over the whole run... as written the argument gives ~√h
	// sends per node; we assert the measured per-link congestion stays
	// within √h + slack.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Random(40, 120, graph.GenOpts{Seed: seed, MaxW: 4, ZeroFrac: 0.3, Directed: true})
		h := 9
		res, err := SingleSource(g, 3, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bound := int(math.Sqrt(float64(h))) + 2
		if res.Stats.MaxLinkCongestion > bound {
			t.Errorf("seed %d: congestion %d exceeds √h+2 = %d", seed, res.Stats.MaxLinkCongestion, bound)
		}
	}
}

func TestExtension(t *testing.T) {
	// Seed a frontier with known distances; extension must equal the
	// Dijkstra distances of a virtual super-source attached to the seeds.
	g := graph.Random(30, 90, graph.GenOpts{Seed: 7, MaxW: 6, ZeroFrac: 0.2, Directed: true})
	seed := map[int]int64{2: 5, 11: 0, 23: 9}
	res, err := Extension(g, seed, 5)
	if err != nil {
		t.Fatalf("Extension: %v", err)
	}
	// Reference: virtual node attached to each seeded node with the seed
	// weight.
	vg := graph.New(g.N()+1, true)
	for _, e := range g.Edges() {
		vg.MustAddEdge(e.From, e.To, e.W)
	}
	for v, d := range seed {
		vg.MustAddEdge(g.N(), v, d)
	}
	want := graph.Dijkstra(vg, g.N())
	for v := 0; v < g.N(); v++ {
		if res.Dist[0][v] != want[v] {
			t.Fatalf("extension dist[%d] = %d, want %d", v, res.Dist[0][v], want[v])
		}
	}
}

func TestKSourceExact(t *testing.T) {
	g := graph.Grid(5, 6, graph.GenOpts{Seed: 4, MaxW: 5, ZeroFrac: 0.25})
	sources := []int{0, 14, 29}
	res, err := Run(g, Opts{Sources: sources, H: 7})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, s := range sources {
		want := graph.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			if res.Dist[i][v] != want[v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[i][v], want[v])
			}
		}
	}
}

func TestZeroChain(t *testing.T) {
	g := graph.Path(8, graph.GenOpts{Seed: 1, MaxW: 1}).Transform(func(int64) int64 { return 0 })
	res, err := SingleSource(g, 0, 7)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := 0; v < 8; v++ {
		if res.Dist[0][v] != 0 || res.Hops[0][v] != int64(v) {
			t.Fatalf("(d,l)[%d] = (%d,%d), want (0,%d)", v, res.Dist[0][v], res.Hops[0][v], v)
		}
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 2})
	if _, err := Run(g, Opts{H: 2}); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{0}}); err == nil {
		t.Fatal("H=0 accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{5}, H: 1}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Extension(g, nil, 2); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := Extension(g, map[int]int64{0: -1}, 2); err == nil {
		t.Fatal("negative seed accepted")
	}
	inf := graph.Inf
	for _, seed := range [][][]int64{
		{nil, nil},       // one row per source
		{{0, 1}},         // short row
		{{0, 1, inf, 3}}, // long row
		{{0, -2, inf}},   // negative distance
	} {
		if _, err := Run(g, Opts{Sources: []int{0}, H: 2, Seed: seed}); err == nil {
			t.Fatalf("Seed %v accepted", seed)
		}
	}
}
