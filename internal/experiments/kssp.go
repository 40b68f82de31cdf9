package experiments

import (
	"fmt"

	"repro/internal/bellman"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/scaling"
)

func init() {
	register("E-KSSP", eKSSP)
}

// eKSSP sweeps the source count k: the k-SSP bounds of Theorems I.1(iii),
// I.2(ii)/I.3(ii), plus the scaling extension, all on the same graph. The
// paper's claim is sublinear growth in k for the pipelined algorithms
// (√k for Algorithm 1; k^{1/4}..k^{1/3} for Algorithm 3) versus the
// linear growth of the Bellman–Ford-style baselines.
func eKSSP(cfg Config) (*Table, error) {
	n := 48
	if cfg.Small {
		n = 24
	}
	t := &Table{
		ID:      "E-KSSP",
		Title:   "k-SSP: rounds as the source count grows (fixed graph)",
		Headers: []string{"k", "Alg1 rounds", "Alg1 bound", "Alg3 rounds", "scaling rounds", "BF rounds"},
	}
	g := graph.Random(n, 3*n, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	delta := graph.Delta(g)
	for _, k := range []int{1, 4, 16, n} {
		sources := make([]int, 0, k)
		for i := 0; i < k; i++ {
			sources = append(sources, (i*n)/k)
		}
		a1, err := core.KSSP(g, sources, delta)
		if err != nil {
			return nil, err
		}
		a3, err := hssp.Run(g, hssp.Opts{Sources: sources, Delta: delta})
		if err != nil {
			return nil, err
		}
		sc, err := scaling.Run(g, scaling.Opts{Sources: sources})
		if err != nil {
			return nil, err
		}
		// Bellman–Ford baseline cost is h·k with h=n−1; run it for the
		// smaller k only (it is the slow baseline, and its cost is exactly
		// predictable).
		bfRounds := "-"
		if k <= 16 {
			bf, err := bellmanFull(g, sources)
			if err != nil {
				return nil, err
			}
			bfRounds = fmt.Sprint(bf)
		}
		for i, s := range sources {
			want := graph.Dijkstra(g, s)
			for v := 0; v < n; v++ {
				if a1.Dist[i][v] != want[v] || a3.Dist[i][v] != want[v] || sc.Dist[i][v] != want[v] {
					return nil, fmt.Errorf("k=%d: wrong distance from %d", k, s)
				}
			}
		}
		t.AddRow(k, a1.Stats.Rounds, a1.Bound, a3.Stats.Rounds, sc.Stats.Rounds, bfRounds)
	}
	t.Note("Alg1 grows ~√k (Theorem I.1(iii)); Bellman–Ford grows linearly in k")
	return t, nil
}

func bellmanFull(g *graph.Graph, sources []int) (int, error) {
	res, err := bellman.Run(g, bellman.Opts{Sources: sources, H: g.N() - 1})
	if err != nil {
		return 0, err
	}
	return res.Stats.Rounds, nil
}
