package core

import (
	"testing"

	"repro/internal/graph"
)

func allSources(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// checkHKSSP validates a Result against the sequential h-hop reference.
func checkHKSSP(t *testing.T, g *graph.Graph, sources []int, h int, res *Result) {
	t.Helper()
	for i, s := range sources {
		wantD, wantL := graph.HHopDistHops(g, s, h)
		for v := 0; v < g.N(); v++ {
			if res.Dist[i][v] != wantD[v] {
				t.Fatalf("dist[src %d][%d] = %d, want %d", s, v, res.Dist[i][v], wantD[v])
			}
			if wantD[v] < graph.Inf && res.Hops[i][v] != int64(wantL[v]) {
				t.Fatalf("hops[src %d][%d] = %d, want %d (minimal hop count of an h-hop shortest path)",
					s, v, res.Hops[i][v], wantL[v])
			}
		}
	}
}

func TestSingleSourceSmallZeroChain(t *testing.T) {
	// The zero chain that breaks positive-weight pipelining (see
	// internal/posweight): Algorithm 1 must handle it.
	g := graph.New(4, true)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(2, 3, 0)
	res, err := Run(g, Opts{Sources: []int{0}, H: 3, Delta: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := 0; v < 4; v++ {
		if res.Dist[0][v] != 0 {
			t.Fatalf("dist[0][%d] = %d, want 0", v, res.Dist[0][v])
		}
		if res.Hops[0][v] != int64(v) {
			t.Fatalf("hops[0][%d] = %d, want %d", v, res.Hops[0][v], v)
		}
	}
}

func TestHKSSPRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.Random(24, 72, graph.GenOpts{Seed: seed, MaxW: 7, ZeroFrac: 0.3, Directed: seed%2 == 0})
		sources := []int{0, 5, 11, 17}
		for _, h := range []int{2, 5, 9} {
			delta := graph.HHopDelta(g, sources, h)
			res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta, Audit: true})
			if err != nil {
				t.Fatalf("seed %d h %d: %v", seed, h, err)
			}
			checkHKSSP(t, g, sources, h, res)
			// The Pareto discipline's provable per-source bound, as the
			// diagnostic samples it (Result.MaxPerSource: at rest + 1).
			bound := int64(h) + 2
			if delta+2 < bound {
				bound = delta + 2
			}
			if int64(res.MaxPerSource) > bound {
				t.Errorf("seed %d h %d: per-source frontier %d exceeds min(h,Δ)+2 = %d",
					seed, h, res.MaxPerSource, bound)
			}
		}
	}
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(20, 60, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.35, Directed: seed%2 == 1})
		delta := graph.Delta(g)
		res, err := APSP(g, delta)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.APSP(g)
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] != want[s][v] {
					t.Fatalf("seed %d: dist[%d][%d] = %d, want %d", seed, s, v, res.Dist[s][v], want[s][v])
				}
			}
		}
	}
}

func TestRoundsNearPaperBound(t *testing.T) {
	// Lemma II.14 claims completion by round 2√(khΔ) + k + h for the
	// paper's list discipline. The correct (Pareto) discipline can hold
	// more entries per source than Invariant 2 allows, inflating positions
	// and hence schedules; experiment E-INV measures the real ratio. Here
	// we assert the measured rounds stay within 2× the paper bound on this
	// family, which holds with large margin.
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(28, 90, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.3, Directed: true})
		sources := []int{1, 7, 13, 19, 25}
		h := 8
		delta := graph.HHopDelta(g, sources, h)
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if int64(res.Stats.Rounds) > 2*res.Bound {
			t.Errorf("seed %d: rounds %d exceed 2× paper bound %d (late=%d collisions=%d)",
				seed, res.Stats.Rounds, res.Bound, res.LateSends, res.Collisions)
		}
	}
}

func TestAPSPRoundsNearBound(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := graph.Random(24, 72, graph.GenOpts{Seed: seed, MaxW: 4, ZeroFrac: 0.25, Directed: false})
		delta := graph.Delta(g)
		res, err := APSP(g, delta)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Theorem I.1(ii): 2n√Δ + 2n for the paper's discipline; ≤2× for
		// the Pareto discipline on this family.
		if int64(res.Stats.Rounds) > 2*res.Bound {
			t.Errorf("seed %d: APSP rounds %d exceed 2× bound %d", seed, res.Stats.Rounds, res.Bound)
		}
	}
}

func TestPaperModeAPSPRegime(t *testing.T) {
	// With h = n−1 the hop budget never binds for final answers (a
	// min-weight walk contains a simple min-weight path), so the paper's
	// literal machinery — whose losses are all hop-budget Pareto points —
	// is expected to be correct for APSP, and to respect both Invariant 2
	// and the Theorem I.1(ii) round bound. This validates the paper's
	// headline APSP claim as stated.
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(20, 60, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.3, Directed: seed%2 == 0})
		delta := graph.Delta(g)
		sources := allSources(g.N())
		res, err := RunLiteral(g, Opts{Sources: sources, H: g.N() - 1, Delta: delta, Audit: true},
			Literal{Evict: EvictAllInserts, GateByUpdatedKey: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.APSP(g)
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] != want[s][v] {
					t.Fatalf("seed %d: paper-mode APSP wrong at [%d][%d]: %d vs %d",
						seed, s, v, res.Dist[s][v], want[s][v])
				}
			}
		}
		if res.Inv2Violations != 0 {
			t.Errorf("seed %d: paper mode violated Invariant 2 %d times in the APSP regime", seed, res.Inv2Violations)
		}
		if int64(res.Stats.Rounds) > res.Bound {
			t.Errorf("seed %d: paper-mode APSP rounds %d exceed bound %d", seed, res.Stats.Rounds, res.Bound)
		}
	}
}

func TestZeroHeavyGraphs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ZeroHeavy(26, 80, 0.6, graph.GenOpts{Seed: seed, MaxW: 8, Directed: true})
		sources := []int{0, 9, 18}
		h := 12
		delta := graph.HHopDelta(g, sources, h)
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta, Audit: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkHKSSP(t, g, sources, h, res)
	}
}

func TestLayeredZeroLadder(t *testing.T) {
	g := graph.LayeredZero(5, 6, graph.GenOpts{Seed: 2, MaxW: 4})
	sources := []int{0, 7}
	h := g.N() - 1
	delta := graph.HHopDelta(g, sources, h)
	res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkHKSSP(t, g, sources, h, res)
}

func TestHopBudgetBinds(t *testing.T) {
	// Weight-zero path: with H=3 only 3 hops reachable.
	g := graph.Path(8, graph.GenOpts{Seed: 1, MaxW: 1}).Transform(func(int64) int64 { return 0 })
	res, err := Run(g, Opts{Sources: []int{0}, H: 3, Delta: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := 0; v < 8; v++ {
		want := graph.Inf
		if v <= 3 {
			want = 0
		}
		if res.Dist[0][v] != want {
			t.Fatalf("dist[0][%d] = %d, want %d", v, res.Dist[0][v], want)
		}
	}
}

func TestParentPointersAreTight(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(22, 66, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.3, Directed: true})
		sources := []int{0, 8}
		h := 7
		delta := graph.HHopDelta(g, sources, h)
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, s := range sources {
			for v := 0; v < g.N(); v++ {
				if res.Dist[i][v] >= graph.Inf {
					if res.Parent[i][v] != -1 {
						t.Fatalf("unreachable node %d has parent", v)
					}
					continue
				}
				if v == s {
					if res.Parent[i][v] != s {
						t.Fatalf("source parent = %d", res.Parent[i][v])
					}
					continue
				}
				p := res.Parent[i][v]
				w, ok := g.Weight(p, v)
				if !ok {
					t.Fatalf("parent arc (%d,%d) missing", p, v)
				}
				// The recorded path's prefix to p has res.Hops-1 hops; its
				// weight must equal dist - w and be optimal for that hop
				// budget (else a shorter h-hop path to v would exist).
				lm1 := int(res.Hops[i][v]) - 1
				pref := graph.HHopDistances(g, s, lm1)
				if pref[p]+w != res.Dist[i][v] {
					t.Fatalf("seed %d: parent edge not tight at v=%d: pref=%d w=%d dist=%d",
						seed, v, pref[p], w, res.Dist[i][v])
				}
			}
		}
	}
}

func TestDeltaAutoUpperBound(t *testing.T) {
	g := graph.Random(18, 50, graph.GenOpts{Seed: 4, MaxW: 5, ZeroFrac: 0.2, Directed: true})
	res, err := Run(g, Opts{Sources: []int{0, 3}, H: 6}) // Delta omitted
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Delta != 6*g.MaxWeight() {
		t.Fatalf("auto Delta = %d, want H·maxW = %d", res.Delta, 6*g.MaxWeight())
	}
	checkHKSSP(t, g, []int{0, 3}, 6, res)
}

func TestValidation(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 3})
	if _, err := Run(g, Opts{H: 2}); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{0}}); err == nil {
		t.Fatal("H=0 accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{9}, H: 2}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := Run(g, Opts{Sources: []int{1, 1}, H: 2}); err == nil {
		t.Fatal("duplicate source accepted")
	}
}

func TestInvariantCountersPopulated(t *testing.T) {
	g := graph.ZeroHeavy(20, 60, 0.5, graph.GenOpts{Seed: 3, MaxW: 6, Directed: true})
	sources := allSources(g.N())
	h := 10
	delta := graph.HHopDelta(g, sources, h)
	res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta, Audit: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Inserts == 0 || res.MaxListLen == 0 || res.MaxPerSource == 0 {
		t.Fatalf("counters empty: %+v", res)
	}
	// Pareto discipline bound: per-source entries ≤ min(h,Δ)+1 at rest —
	// one more as Result.MaxPerSource samples it — and total list
	// ≤ k · (min(h,Δ)+1).
	perBound := int64(h) + 1
	if delta+1 < perBound {
		perBound = delta + 1
	}
	if int64(res.MaxPerSource) > perBound+1 {
		t.Errorf("per-source frontier %d exceeds min(h,Δ)+2 = %d", res.MaxPerSource, perBound+1)
	}
	if int64(res.MaxListLen) > int64(len(sources))*perBound {
		t.Errorf("list length %d exceeds k·(min(h,Δ)+1)", res.MaxListLen)
	}
}

func TestMultiEntryListsActuallyUsed(t *testing.T) {
	// On zero-heavy graphs Algorithm 1's distinguishing feature — multiple
	// entries per source — must actually occur; otherwise this
	// implementation would be indistinguishable from the single-estimate
	// baseline and the test suite would not be exercising the novelty.
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		g := graph.ZeroHeavy(24, 96, 0.5, graph.GenOpts{Seed: seed, MaxW: 9, Directed: true})
		sources := allSources(g.N())
		h := 12
		delta := graph.HHopDelta(g, sources, h)
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MaxPerSource > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("no run ever stored more than one entry per source")
	}
}

func TestUndirectedGraph(t *testing.T) {
	g := graph.Grid(4, 5, graph.GenOpts{Seed: 7, MaxW: 5, ZeroFrac: 0.3})
	sources := []int{0, 10, 19}
	h := 9
	delta := graph.HHopDelta(g, sources, h)
	res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkHKSSP(t, g, sources, h, res)
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.New(1, true)
	res, err := Run(g, Opts{Sources: []int{0}, H: 1, Delta: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dist[0][0] != 0 || res.Stats.Rounds != 0 {
		t.Fatalf("single node: %+v", res)
	}
}
