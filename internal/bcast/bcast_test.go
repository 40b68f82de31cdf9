package bcast

import (
	"errors"
	"math"
	"runtime"
	"slices"
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

// TestMaxArgRoundBudget hands MaxArg a tree whose Children list at node 1
// omits leaf 3, which names 1 as its Parent: both leaves report in round
// 1, node 1's pending count drops below zero, and it never sends nor
// quiesces. MaxArg must stop at its convergecast budget, not the engine's
// default.
func TestMaxArgRoundBudget(t *testing.T) {
	g := graph.New(4, false)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(1, 3, 1)
	tr := &Tree{Root: 0, Parent: []int{0, 0, 1, 1}, Children: [][]int{{1}, {2}, nil, nil}, Depth: []int{0, 1, 2, 2}, Height: 2}
	var last lastRound
	_, _, _, err := MaxArg(g, tr, []int64{0, 1, 2, 3}, congest.Config{Observer: &last})
	if want := 16*(tr.Height+1) + 1024; !errors.Is(err, congest.ErrMaxRounds) || int(last) != want {
		t.Fatalf("MaxArg on a broken tree: last round %d, err %v; want ErrMaxRounds after round %d", last, err, want)
	}
}

// lastRound is an observer keeping the last round a run finished.
type lastRound int

func (l *lastRound) RoundDone(e congest.RoundEvent) { *l = lastRound(e.Round) }
func (*lastRound) RunStart(int)                     {}
func (*lastRound) NodeSends(int, int, int)          {}
func (*lastRound) LinkPeak(int, int, int, int)      {}
func (*lastRound) RunDone(congest.Stats)            {}

// TestBroadcastPipelined checks that every node folds every value exactly
// once and in stream order (the fold is an order-sensitive hash), the root
// included.
func TestBroadcastPipelined(t *testing.T) {
	g := graph.Path(6, graph.GenOpts{Seed: 1, MaxW: 1})
	tr := buildTestTree(t, g, 0)
	values := []Vec{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	seed := func(v int) []int64 { return []int64{int64(v), 0} }
	fold := func(_ int, row []int64, x Vec) { row[0], row[1] = row[0]*31+x[0], row[1]+x[1] }
	rows := make([][]int64, g.N())
	for v := range rows {
		rows[v] = seed(v)
	}
	got, stats, err := Broadcast(g, tr, values, rows, fold, congest.Config{})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		want := seed(v)
		for _, x := range values {
			fold(v, want, x)
		}
		if !slices.Equal(got[v], want) {
			t.Fatalf("node %d row = %v, want %v", v, got[v], want)
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
	rows := [][]int64{{7}, {7}, {7}}
	got, stats, err := Broadcast(g, tr, nil, rows, func(_ int, row []int64, _ Vec) { row[0]++ }, congest.Config{})
	if err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if stats.Rounds != 0 {
		t.Fatalf("empty broadcast used %d rounds", stats.Rounds)
	}
	for v := range got {
		if got[v][0] != 7 {
			t.Fatalf("node %d folded phantom values: %v", v, got[v])
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

// TestBroadcastAllocsLinearInNodes guards the relays' bookkeeping: a relay
// keeps a fixed row instead of a list of what it received, its queue
// drains by index without growing, and it forwards the Payload it received
// instead of boxing the value again, so a Broadcast of L values down a path
// costs a fixed number of allocations and bytes per node plus one box per
// value at the root — O(n + L), not O(n·log L) or O(n·L). The guard
// compares the per-node cost (the difference between paths of 2n and n
// nodes) at two list lengths.
func TestBroadcastAllocsLinearInNodes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perNode := func(L int) (allocs, bytes float64) {
		values := make([]Vec, L)
		for i := range values {
			values[i] = Vec{int64(i)}
		}
		fold := func(_ int, row []int64, x Vec) { row[0] += x[0] }
		var cost [2][2]float64
		for i, n := range []int{32, 64} {
			g := graph.Path(n, graph.GenOpts{Seed: 1, MaxW: 1})
			tr := buildTestTree(t, g, 0)
			cfg := congest.Config{Workers: 1}
			rows := make([][]int64, n)
			for v := range rows {
				rows[v] = make([]int64, 1)
			}
			// The cheapest of several runs: one whose engine came from the
			// pool (a fresh engine only adds).
			cost[i] = [2]float64{math.Inf(1), math.Inf(1)}
			for try := 0; try < 10; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, _, err := Broadcast(g, tr, values, rows, fold, cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				cost[i][0] = min(cost[i][0], float64(after.Mallocs-before.Mallocs))
				cost[i][1] = min(cost[i][1], float64(after.TotalAlloc-before.TotalAlloc))
			}
		}
		return cost[1][0] - cost[0][0], cost[1][1] - cost[0][1]
	}
	shortA, shortB := perNode(16)
	longA, longB := perNode(1024)
	// The two counts agree exactly in a normal build; under the race
	// detector a run now and then counts two more. The slack is far below
	// the 32·log2(1024/16) = 192 that relays growing their lists by
	// doubling would add.
	if math.Abs(longA-shortA) > 4 {
		t.Fatalf("32 more path nodes cost %v allocations for 16 values but %v for 1024: a relay's cost grows with the list", shortA, longA)
	}
	// Likewise the bytes: 1 KiB of slack against the 32·1008·24 B ≈ 774 KB
	// that relays keeping what they received would add.
	if math.Abs(longB-shortB) > 1024 {
		t.Fatalf("32 more path nodes cost %v bytes for 16 values but %v for 1024: a relay's memory grows with the list", shortB, longB)
	}
}
