package blocker

import (
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/cssp"
	"repro/internal/graph"
)

func runPhase(g *graph.Graph, mk func(v int) *claimNode) (congest.Stats, error) {
	return congest.Run(g, func(v int) congest.Node { return mk(v) }, congest.Config{})
}

func runScorePhase(g *graph.Graph, mk func(v int) *scoreNode) (congest.Stats, error) {
	return congest.Run(g, func(v int) congest.Node { return mk(v) }, congest.Config{})
}

// centralScores computes score_v(i) = number of depth-h descendants of v in
// tree i, sequentially, as the oracle for the convergecast.
func centralScores(coll *cssp.Collection, n int) [][]int64 {
	k := len(coll.Sources)
	score := make([][]int64, n)
	for v := 0; v < n; v++ {
		score[v] = make([]int64, k)
	}
	for i := 0; i < k; i++ {
		for v := 0; v < n; v++ {
			if coll.Depth[i][v] != coll.H {
				continue
			}
			for _, u := range coll.PathTo(i, v) {
				score[u][i]++
			}
		}
	}
	return score
}

// centralGreedy replicates the distributed greedy (max total score, ties by
// smallest node) sequentially.
func centralGreedy(coll *cssp.Collection, n int) []int {
	score := centralScores(coll, n)
	k := len(coll.Sources)
	var q []int
	for {
		best, arg := int64(0), -1
		for v := 0; v < n; v++ {
			var t int64
			for i := 0; i < k; i++ {
				t += score[v][i]
			}
			if t > best {
				best, arg = t, v
			}
		}
		if best == 0 {
			return q
		}
		q = append(q, arg)
		// Re-derive scores from uncovered leaves.
		inQ := make(map[int]bool, len(q))
		for _, c := range q {
			inQ[c] = true
		}
		for v := 0; v < n; v++ {
			for i := 0; i < k; i++ {
				score[v][i] = 0
			}
		}
		for i := 0; i < k; i++ {
			for v := 0; v < n; v++ {
				if coll.Depth[i][v] != coll.H {
					continue
				}
				path := coll.PathTo(i, v)
				covered := false
				for _, u := range path {
					if inQ[u] {
						covered = true
						break
					}
				}
				if covered {
					continue
				}
				for _, u := range path {
					score[u][i]++
				}
			}
		}
	}
}

func buildCollection(t *testing.T, seed int64, n, m, h int, zeroFrac float64, kSources int) (*graph.Graph, *cssp.Collection) {
	t.Helper()
	g := graph.Random(n, m, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: zeroFrac, Directed: seed%2 == 0})
	sources := make([]int, 0, kSources)
	for i := 0; i < kSources; i++ {
		sources = append(sources, (i*n)/kSources)
	}
	coll, err := cssp.Build(g, sources, h, 0, congest.Config{})
	if err != nil {
		t.Fatalf("cssp.Build: %v", err)
	}
	return g, coll
}

func TestScoresMatchCentral(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, coll := buildCollection(t, seed, 20, 60, 3, 0.3, 4)
		scores := make([]*scoreNode, g.N())
		claims := make([]*claimNode, g.N())
		_, err := runPhase(g, func(v int) *claimNode {
			claims[v] = &claimNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll}
			return claims[v]
		})
		if err != nil {
			t.Fatalf("claims: %v", err)
		}
		_, err = runScorePhase(g, func(v int) *scoreNode {
			scores[v] = &scoreNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll, children: claims[v].children}
			return scores[v]
		})
		if err != nil {
			t.Fatalf("scores: %v", err)
		}
		want := centralScores(coll, g.N())
		for v := 0; v < g.N(); v++ {
			for i := range coll.Sources {
				if scores[v].score[i] != want[v][i] {
					t.Fatalf("seed %d: score[%d][%d] = %d, want %d", seed, v, i, scores[v].score[i], want[v][i])
				}
			}
		}
	}
}

func TestChildrenClaimsMatchCollection(t *testing.T) {
	g, coll := buildCollection(t, 3, 18, 54, 3, 0.3, 3)
	claims := make([]*claimNode, g.N())
	_, err := runPhase(g, func(v int) *claimNode {
		claims[v] = &claimNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll}
		return claims[v]
	})
	if err != nil {
		t.Fatalf("claims: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		for i := range coll.Sources {
			got := append([]int(nil), claims[v].children[i]...)
			want := append([]int(nil), coll.Children[i][v]...)
			if len(got) != len(want) {
				t.Fatalf("children[%d][%d]: %v vs %v", i, v, got, want)
			}
			seen := make(map[int]bool)
			for _, c := range got {
				seen[c] = true
			}
			for _, c := range want {
				if !seen[c] {
					t.Fatalf("children[%d][%d]: missing %d", i, v, c)
				}
			}
		}
	}
}

func TestComputeCoversAllPaths(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, coll := buildCollection(t, seed, 22, 66, 3, 0.3, 5)
		res, err := Compute(g, coll, congest.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bad := VerifyCoverage(coll, res.Q); len(bad) != 0 {
			t.Fatalf("seed %d: uncovered paths: %v", seed, bad[0])
		}
		for v := range res.Scores {
			for i := range res.Scores[v] {
				if res.Scores[v][i] != 0 {
					t.Fatalf("seed %d: residual score at %d tree %d", seed, v, i)
				}
			}
		}
	}
}

func TestComputeMatchesCentralGreedy(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, coll := buildCollection(t, seed, 20, 60, 2, 0.25, 4)
		res, err := Compute(g, coll, congest.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := centralGreedy(coll, g.N())
		if len(res.Q) != len(want) {
			t.Fatalf("seed %d: |Q| = %d, central %d (%v vs %v)", seed, len(res.Q), len(want), res.Q, want)
		}
		for j := range want {
			if res.Q[j] != want[j] {
				t.Fatalf("seed %d: pick %d = %d, central %d", seed, j, res.Q[j], want[j])
			}
		}
	}
}

func TestBlockerSizeReasonable(t *testing.T) {
	// The paper's greedy guarantee: |Q| = O((n ln n)/h) (from [3]).
	g, coll := buildCollection(t, 9, 40, 160, 4, 0.3, 40)
	res, err := Compute(g, coll, congest.Config{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	n := float64(g.N())
	bound := int(4*n*math.Log(n)/float64(coll.H)) + 1
	if len(res.Q) > bound {
		t.Fatalf("|Q| = %d exceeds 4(n ln n)/h = %d", len(res.Q), bound)
	}
	t.Logf("|Q| = %d, bound %d, rounds %d (%v)", len(res.Q), bound, res.Stats.Rounds, res.PhaseRounds)
}

func TestEmptyBlockerWhenNoDeepPaths(t *testing.T) {
	// A shallow graph with h larger than any hop distance: no depth-h
	// leaves, so Q must be empty.
	g := graph.Complete(6, graph.GenOpts{Seed: 1, MaxW: 5})
	coll, err := cssp.Build(g, []int{0, 1, 2}, 4, 0, congest.Config{})
	if err != nil {
		t.Fatalf("cssp.Build: %v", err)
	}
	res, err := Compute(g, coll, congest.Config{})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if len(res.Q) != 0 {
		t.Fatalf("Q = %v, want empty", res.Q)
	}
}
