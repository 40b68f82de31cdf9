package bcast

import (
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

func buildTestTree(t *testing.T, g *graph.Graph, root int) *Tree {
	t.Helper()
	tr, _, err := BuildTree(g, root, congest.Config{})
	if err != nil {
		t.Fatalf("BuildTree: %v", err)
	}
	return tr
}

func TestBuildTreeOnPath(t *testing.T) {
	g := graph.Path(5, graph.GenOpts{Seed: 1, MaxW: 1})
	tr := buildTestTree(t, g, 0)
	for v := 0; v < 5; v++ {
		if tr.Depth[v] != v {
			t.Fatalf("Depth[%d] = %d, want %d", v, tr.Depth[v], v)
		}
	}
	if tr.Parent[0] != 0 || tr.Parent[3] != 2 {
		t.Fatalf("parents = %v", tr.Parent)
	}
	if tr.Height != 4 {
		t.Fatalf("Height = %d", tr.Height)
	}
	if len(tr.Children[2]) != 1 || tr.Children[2][0] != 3 {
		t.Fatalf("Children[2] = %v", tr.Children[2])
	}
}

func TestBuildTreeIsBFS(t *testing.T) {
	g := graph.Random(60, 180, graph.GenOpts{Seed: 7, MaxW: 5, Directed: true})
	tr := buildTestTree(t, g, 3)
	// Communication is undirected: compare against undirected hop distances.
	u := graph.New(g.N(), false)
	for _, e := range g.Edges() {
		u.MustAddEdge(e.From, e.To, 1)
	}
	hop := graph.HHopDistances(u, 3, g.N())
	for v := 0; v < g.N(); v++ {
		if int64(tr.Depth[v]) != hop[v] {
			t.Fatalf("Depth[%d] = %d, want %d", v, tr.Depth[v], hop[v])
		}
		if v != 3 {
			p := tr.Parent[v]
			if tr.Depth[p] != tr.Depth[v]-1 {
				t.Fatalf("parent depth not one less at %d", v)
			}
			if !g.HasLink(p, v) {
				t.Fatalf("parent edge (%d,%d) is not a link", p, v)
			}
		}
	}
	// Children lists must be consistent with parents.
	count := 0
	for v := range tr.Children {
		for _, c := range tr.Children[v] {
			if tr.Parent[c] != v {
				t.Fatalf("child %d of %d has parent %d", c, v, tr.Parent[c])
			}
			count++
		}
	}
	if count != g.N()-1 {
		t.Fatalf("tree has %d child links, want %d", count, g.N()-1)
	}
}

func TestBuildTreeDisconnected(t *testing.T) {
	g := graph.New(4, false)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, _, err := BuildTree(g, 0, congest.Config{}); err == nil {
		t.Fatal("BuildTree on disconnected graph succeeded")
	}
}

func TestMaxArg(t *testing.T) {
	g := graph.Random(40, 120, graph.GenOpts{Seed: 5, MaxW: 5})
	tr := buildTestTree(t, g, 0)
	vals := make([]int64, g.N())
	for v := range vals {
		vals[v] = int64((v * 7) % 23)
	}
	wantV, wantA := int64(-1), int64(-1)
	for v, x := range vals {
		if x > wantV {
			wantV, wantA = x, int64(v)
		}
	}
	got, arg, _, err := MaxArg(g, tr, vals, congest.Config{})
	if err != nil {
		t.Fatalf("MaxArg: %v", err)
	}
	if got != wantV || arg != wantA {
		t.Fatalf("MaxArg = (%d,%d), want (%d,%d)", got, arg, wantV, wantA)
	}
}

func TestMaxArgTieBreaksSmallestNode(t *testing.T) {
	g := graph.Ring(8, graph.GenOpts{Seed: 2, MaxW: 3})
	tr := buildTestTree(t, g, 0)
	vals := make([]int64, 8)
	vals[6] = 5
	vals[2] = 5
	_, arg, _, err := MaxArg(g, tr, vals, congest.Config{})
	if err != nil {
		t.Fatalf("MaxArg: %v", err)
	}
	if arg != 2 {
		t.Fatalf("arg = %d, want 2 (smallest node attaining the max)", arg)
	}
}

func TestBroadcastPipelined(t *testing.T) {
	g := graph.Path(6, graph.GenOpts{Seed: 1, MaxW: 1})
	tr := buildTestTree(t, g, 0)
	values := []Vec{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	got, stats, err := Broadcast(g, tr, values, congest.Config{})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if len(got[v]) != len(values) {
			t.Fatalf("node %d got %d values", v, len(got[v]))
		}
		for i := range values {
			if got[v][i][0] != values[i][0] || got[v][i][1] != values[i][1] {
				t.Fatalf("node %d value %d = %v, want %v", v, i, got[v][i], values[i])
			}
		}
	}
	// Pipelining: rounds ≤ len(values) + height.
	if limit := len(values) + tr.Height; stats.Rounds > limit {
		t.Fatalf("Broadcast rounds = %d, want ≤ %d", stats.Rounds, limit)
	}
}

func TestBroadcastEmptyList(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 1})
	tr := buildTestTree(t, g, 0)
	got, stats, err := Broadcast(g, tr, nil, congest.Config{})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if stats.Rounds != 0 {
		t.Fatalf("empty broadcast used %d rounds", stats.Rounds)
	}
	for v := range got {
		if len(got[v]) != 0 {
			t.Fatalf("node %d received phantom values", v)
		}
	}
}

func TestGather(t *testing.T) {
	g := graph.Random(20, 50, graph.GenOpts{Seed: 4, MaxW: 5})
	tr := buildTestTree(t, g, 0)
	items := make([][]Vec, g.N())
	total := 0
	for v := 0; v < g.N(); v++ {
		for i := 0; i <= v%3; i++ {
			items[v] = append(items[v], Vec{int64(v), int64(i)})
			total++
		}
	}
	got, stats, err := Gather(g, tr, items, congest.Config{})
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	if len(got) != total {
		t.Fatalf("Gather collected %d items, want %d", len(got), total)
	}
	seen := make(map[[2]int64]bool)
	for _, v := range got {
		seen[[2]int64{v[0], v[1]}] = true
	}
	if len(seen) != total {
		t.Fatalf("Gather produced duplicates: %d unique of %d", len(seen), total)
	}
	if limit := total + tr.Height + 1; stats.Rounds > limit {
		t.Fatalf("Gather rounds = %d, want ≤ %d", stats.Rounds, limit)
	}
}

// TestBroadcastAllocsLinearInNodes guards the relays' bookkeeping: a
// relay's received list is presized, its queue drains by index without
// growing, and it forwards the Payload it received instead of boxing the
// value again, so a Broadcast of L values down a path costs a fixed number
// of allocations per node plus one box per value at the root — O(n + L),
// not O(n·log L) or O(n·L). The guard compares the per-node cost (the
// difference between paths of 2n and n nodes) at two list lengths.
func TestBroadcastAllocsLinearInNodes(t *testing.T) {
	perNode := func(L int) float64 {
		values := make([]Vec, L)
		for i := range values {
			values[i] = Vec{int64(i)}
		}
		var cost [2]float64
		for i, n := range []int{32, 64} {
			g := graph.Path(n, graph.GenOpts{Seed: 1, MaxW: 1})
			tr := buildTestTree(t, g, 0)
			cfg := congest.Config{Workers: 1}
			// The cheapest of several runs: one whose engine came from the
			// pool (a fresh engine only adds).
			cost[i] = math.Inf(1)
			for try := 0; try < 10; try++ {
				cost[i] = min(cost[i], testing.AllocsPerRun(1, func() {
					if _, _, err := Broadcast(g, tr, values, cfg); err != nil {
						t.Fatal(err)
					}
				}))
			}
		}
		return cost[1] - cost[0]
	}
	// The two costs agree exactly in a normal build; under the race
	// detector a run now and then counts two more. The slack is far below
	// the 32·log2(1024/16) = 192 that relays growing their lists by
	// doubling would add.
	if short, long := perNode(16), perNode(1024); math.Abs(long-short) > 4 {
		t.Fatalf("32 more path nodes cost %v allocations for 16 values but %v for 1024: a relay's cost grows with the list", short, long)
	}
}
