package experiments

import (
	"fmt"
	"math"

	"repro/internal/bellman"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hssp"
)

func init() {
	register("T1-exact", t1Exact)
	register("E-T11", eT11)
	register("E-T1213", eT1213)
}

// t1Exact regenerates the paper's Table I (exact weighted APSP): measured
// rounds of every implementable competitor on the same graphs, against the
// theoretical reference curves. Absolute constants differ from the paper's
// O(·) rows by design; the comparison of interest is who wins and how the
// gaps scale.
func t1Exact(cfg Config) (*Table, error) {
	sizes := []int{24, 32, 48, 64}
	if cfg.Small {
		sizes = []int{16, 24}
	}
	t := &Table{
		ID:      "T1-exact",
		Title:   "Table I (exact APSP): measured rounds per algorithm",
		Headers: []string{"n", "Δ", "Alg1 (this paper)", "Alg3 (this paper)", "Bellman-Ford", "bound 2n√Δ+2n", "n^1.5 ([3])", "Alg1/bound"},
	}
	for _, n := range sizes {
		g := graph.Random(n, 3*n, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
		delta := graph.Delta(g)

		a1, err := core.APSP(g, delta)
		if err != nil {
			return nil, fmt.Errorf("Alg1 n=%d: %w", n, err)
		}
		a3, err := hssp.Run(g, hssp.Opts{Delta: delta})
		if err != nil {
			return nil, fmt.Errorf("Alg3 n=%d: %w", n, err)
		}
		sources := make([]int, n)
		for v := range sources {
			sources[v] = v
		}
		bf, err := bellman.Run(g, bellman.Opts{Sources: sources, H: n - 1})
		if err != nil {
			return nil, fmt.Errorf("BF n=%d: %w", n, err)
		}
		// Validate all three against the oracle before reporting numbers.
		want := graph.APSP(g)
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if a1.Dist[s][v] != want[s][v] || a3.Dist[s][v] != want[s][v] || bf.Dist[s][v] != want[s][v] {
					return nil, fmt.Errorf("n=%d: an algorithm returned a wrong distance at (%d,%d)", n, s, v)
				}
			}
		}
		n32 := int64(math.Ceil(math.Pow(float64(n), 1.5)))
		t.AddRow(n, delta, a1.Stats.Rounds, a3.Stats.Rounds, bf.Stats.Rounds,
			a1.Bound, n32, ratio(int64(a1.Stats.Rounds), a1.Bound))
	}
	t.Note("all outputs validated against Dijkstra before measuring")
	t.Note("Alg3 = CSSSP + blocker + per-blocker SSSP (Theorems I.2/I.3), h auto-chosen")
	return t, nil
}

// eT11 validates Theorem I.1's round bound 2√(khΔ)+k+h across an (h,k)
// sweep.
func eT11(cfg Config) (*Table, error) {
	n, m := 40, 140
	if cfg.Small {
		n, m = 24, 80
	}
	t := &Table{
		ID:      "E-T11",
		Title:   "Theorem I.1: measured rounds vs 2√(khΔ)+k+h",
		Headers: []string{"k", "h", "Δ", "rounds", "bound", "rounds/bound", "late", "collisions"},
	}
	g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 6, ZeroFrac: 0.3, Directed: true})
	for _, k := range []int{1, 4, 8} {
		for _, h := range []int{4, 8, 16} {
			sources := make([]int, 0, k)
			for i := 0; i < k; i++ {
				sources = append(sources, (i*n)/k)
			}
			delta := graph.HHopDelta(g, sources, h)
			if delta == 0 {
				delta = 1
			}
			res, err := core.Run(g, core.Opts{Sources: sources, H: h, Delta: delta})
			if err != nil {
				return nil, err
			}
			for i, s := range sources {
				want := graph.HHopDistances(g, s, h)
				for v := 0; v < n; v++ {
					if res.Dist[i][v] != want[v] {
						return nil, fmt.Errorf("k=%d h=%d: wrong distance", k, h)
					}
				}
			}
			t.AddRow(k, h, delta, res.Stats.Rounds, res.Bound,
				ratio(int64(res.Stats.Rounds), res.Bound), res.LateSends, res.Collisions)
		}
	}
	t.Note("rounds/bound > 1 quantifies the cost of the correct (Pareto) list discipline")
	return t, nil
}

// eT1213 sweeps the maximum weight W to reproduce Corollary I.4's
// crossover: Algorithm 3 (W-sensitive) against Algorithm 1 (Δ-sensitive)
// and the n^{3/2} reference of [3].
func eT1213(cfg Config) (*Table, error) {
	n := 40
	if cfg.Small {
		n = 24
	}
	t := &Table{
		ID:      "E-T1213",
		Title:   "Theorems I.2/I.3 & Corollary I.4: rounds as W grows (fixed n)",
		Headers: []string{"W", "Δ", "Alg1 rounds", "Alg3 rounds", "Alg3 |Q|", "Alg3 h", "n^1.5", "winner"},
	}
	weights := []int64{1, 16, 256, 1024}
	if cfg.Small {
		weights = []int64{1, 16, 256}
	}
	for _, w := range weights {
		minW := w / 4
		g := graph.Random(n, 3*n, graph.GenOpts{Seed: cfg.Seed + int64(w), MinW: minW, MaxW: w, ZeroFrac: 0.1, Directed: true})
		delta := graph.Delta(g)
		a1, err := core.APSP(g, delta)
		if err != nil {
			return nil, err
		}
		a3, err := hssp.Run(g, hssp.Opts{Delta: delta})
		if err != nil {
			return nil, err
		}
		want := graph.APSP(g)
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if a1.Dist[s][v] != want[s][v] || a3.Dist[s][v] != want[s][v] {
					return nil, fmt.Errorf("W=%d: wrong distance", w)
				}
			}
		}
		n32 := int64(math.Ceil(math.Pow(float64(n), 1.5)))
		winner := "Alg1"
		if a3.Stats.Rounds < a1.Stats.Rounds {
			winner = "Alg3"
		}
		t.AddRow(w, delta, a1.Stats.Rounds, a3.Stats.Rounds, len(a3.Q), a3.H, n32, winner)
	}
	t.Note("paper's claim: Alg1 scales with √Δ (so with √W); Alg3 trades that for n·|Q| + √(Δhk)")
	return t, nil
}
