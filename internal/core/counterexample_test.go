package core

import (
	"testing"

	"repro/internal/graph"
)

// This file pins down the two reproduction findings about the paper's
// Algorithm 1 pseudocode (conference version): literal readings of the
// INSERT eviction rule and of the Step 13 ν-gate lose entries that are the
// unique carriers of some node's h-hop shortest path. Both instances were
// found by the randomized shrink search in debug_test.go and verified by
// hand (the traces are in EXPERIMENTS.md). Run (Pareto) is correct on both.

// instanceEvict is the 8-node instance where a new shortest-path entry
// (d=4,l=4) at node 7 evicts the due-but-unsent non-SP entry (d=7,l=2) —
// the unique carrier of node 3's 4-hop shortest path (weight 7 via
// 0→2→7→3).
func instanceEvict() (*graph.Graph, []int, int, int64, int, int64) {
	g := graph.New(8, true)
	for _, e := range [][3]int64{
		{0, 2, 4}, {1, 2, 0}, {1, 7, 0}, {2, 4, 0}, {2, 6, 0}, {2, 6, 3},
		{2, 7, 3}, {3, 6, 3}, {4, 1, 0}, {4, 1, 2}, {4, 2, 0}, {5, 1, 5},
		{5, 3, 3}, {5, 7, 0}, {7, 3, 0}, {7, 6, 0},
	} {
		g.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g, []int{0}, 4, 7, 3, 7 // sources, h, Δ, victim node, true dist
}

// instanceGate is the 9-node instance where the eviction rule applied on a
// non-SP insertion removes node 8's unsent (d=4,l=1) entry for source 6,
// losing node 5's shortest path (weight 9 via 6→8→3→7→5).
func instanceGate() (*graph.Graph, []int, int, int64) {
	g := graph.New(9, true)
	for _, e := range [][3]int64{
		{0, 6, 0}, {0, 7, 2}, {1, 6, 0}, {1, 8, 0}, {2, 1, 4}, {2, 8, 0},
		{3, 7, 0}, {3, 8, 0}, {4, 2, 0}, {5, 3, 0}, {6, 2, 3}, {6, 4, 2},
		{6, 8, 4}, {7, 1, 5}, {7, 5, 4}, {7, 6, 5}, {8, 0, 3}, {8, 3, 1},
	} {
		g.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g, []int{0, 3, 6}, 4, 9
}

func TestPaperModeCounterexampleEviction(t *testing.T) {
	g, sources, h, delta, victim, want := instanceEvict()
	res, err := RunLiteral(g, Opts{Sources: sources, H: h, Delta: delta},
		Literal{Evict: EvictAllInserts, GateByUpdatedKey: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Dist[0][victim] == want {
		t.Fatalf("the literal eviction rule unexpectedly produced the correct distance %d — counterexample no longer reproduces", want)
	}
	t.Logf("literal paper mode: dist[0][%d] = %d, truth %d (reproduced the loss)", victim, res.Dist[0][victim], want)
}

func TestPaperModeCounterexampleNonSPEvict(t *testing.T) {
	g, sources, h, delta := instanceGate()
	// Even the gentler eviction (applied only on non-SP insertions) loses
	// node 5's shortest path from source 6, whichever gate key is used.
	res, err := RunLiteral(g, Opts{Sources: sources, H: h, Delta: delta},
		Literal{Evict: EvictNonSPInserts})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := graph.HHopDistances(g, 6, h)
	if res.Dist[2][5] == want[5] {
		t.Fatalf("the non-SP eviction rule unexpectedly produced the correct distance — counterexample no longer reproduces")
	}
	t.Logf("non-SP eviction: dist[6][5] = %d, truth %d (reproduced the loss)", res.Dist[2][5], want[5])
}

// instanceGateKey is the 8-node instance where gating a non-SP entry by its
// updated key κ(Z) drops node 5's entry (d=6,l=3) for source 0 — the unique
// carrier of node 6's 4-hop shortest path (weight 6 via 0→2→1→5→6) — while
// every eviction policy is harmless here.
func instanceGateKey() (*graph.Graph, []int, int, int64) {
	g := graph.New(8, true)
	for _, e := range [][3]int64{
		{0, 2, 0}, {1, 5, 3}, {2, 0, 5}, {2, 1, 3}, {2, 3, 0}, {3, 4, 2},
		{4, 0, 5}, {4, 2, 0}, {4, 5, 1}, {4, 6, 5}, {5, 0, 0}, {5, 6, 0},
		{6, 0, 4}, {6, 3, 0}, {7, 4, 5}, {7, 5, 3},
	} {
		g.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g, []int{0, 2, 5}, 4, 6
}

func TestPaperModeCounterexampleGateKey(t *testing.T) {
	g, sources, h, delta := instanceGateKey()
	// Isolate the gate: EvictOnlySent never discards unshared information,
	// so the remaining loss is attributable to the updated-key gate alone.
	res, err := RunLiteral(g, Opts{Sources: sources, H: h, Delta: delta},
		Literal{Evict: EvictOnlySent, GateByUpdatedKey: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := graph.HHopDistances(g, 0, h)
	if res.Dist[0][6] == want[6] {
		t.Fatalf("the updated-key gate unexpectedly produced the correct distance — counterexample no longer reproduces")
	}
	t.Logf("updated-key gate: dist[0][6] = %d, truth %d (reproduced the loss)", res.Dist[0][6], want[6])
	// Control: the same run gated on the sender's key keeps the entry, so
	// the two gate keys are really two rules.
	ctl, err := RunLiteral(g, Opts{Sources: sources, H: h, Delta: delta}, Literal{Evict: EvictOnlySent})
	if err != nil {
		t.Fatalf("RunLiteral: %v", err)
	}
	if ctl.Dist[0][6] != want[6] {
		t.Fatalf("sender-key gate: dist[0][6] = %d, want %d — the gate keys no longer differ here", ctl.Dist[0][6], want[6])
	}
}

func TestParetoModeFixesBothCounterexamples(t *testing.T) {
	{
		g, sources, h, delta, victim, want := instanceEvict()
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Dist[0][victim] != want {
			t.Fatalf("Pareto mode wrong on eviction instance: %d, want %d", res.Dist[0][victim], want)
		}
	}
	{
		g, sources, h, delta := instanceGate()
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i, s := range sources {
			want := graph.HHopDistances(g, s, h)
			for v := 0; v < g.N(); v++ {
				if res.Dist[i][v] != want[v] {
					t.Fatalf("Pareto mode wrong on gate instance at [%d][%d]: %d, want %d",
						s, v, res.Dist[i][v], want[v])
				}
			}
		}
	}
}

func TestPaperModeVariantsOnRandomGraphs(t *testing.T) {
	// Measure (not assert) how often each paper-literal variant loses a
	// distance on small random graphs; the suite asserts only that the
	// default mode never does (covered elsewhere) and that losses, when
	// they occur, are always overestimates (missing paths), never
	// underestimates (fabricated paths).
	type variant struct {
		name string
		lit  Literal
	}
	variants := []variant{
		{"literal", Literal{Evict: EvictAllInserts, GateByUpdatedKey: true}},
		{"senderGate", Literal{Evict: EvictAllInserts}},
		{"nonSPEvict", Literal{Evict: EvictNonSPInserts}},
	}
	for _, vr := range variants {
		wrong, total := 0, 0
		for seed := int64(0); seed < 15; seed++ {
			g := graph.Random(12, 30, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.25, Directed: true})
			sources := []int{0, 4, 8}
			h := 4
			delta := graph.HHopDelta(g, sources, h)
			res, err := RunLiteral(g, Opts{Sources: sources, H: h, Delta: delta}, vr.lit)
			if err != nil {
				t.Fatalf("%s seed %d: %v", vr.name, seed, err)
			}
			for i, s := range sources {
				want := graph.HHopDistances(g, s, h)
				for v := 0; v < g.N(); v++ {
					total++
					if res.Dist[i][v] != want[v] {
						wrong++
						if res.Dist[i][v] < want[v] {
							t.Fatalf("%s seed %d: UNDERESTIMATE at [%d][%d]: %d < %d",
								vr.name, seed, s, v, res.Dist[i][v], want[v])
						}
					}
				}
			}
		}
		t.Logf("%s: %d/%d distances wrong (all overestimates)", vr.name, wrong, total)
	}
}
