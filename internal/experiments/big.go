package experiments

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	register("E-BIG", eBig)
}

// eBig is the scaling study: Algorithm 1 APSP rounds as n grows with the
// weight scale held fixed, against the 2n√Δ+2n curve. The interesting
// quantity is the fitted exponent of rounds in n (the paper predicts ~1
// when Δ is n-independent, since rounds ≈ 2√Δ·n). The ladder is a clean
// power-of-two progression to n=4096 — uniform log-spacing, so the
// consecutive-pair exponents are directly comparable. The top sizes are
// what the flat message plane buys: at n=4096 the run moves hundreds of
// millions of messages, which the object-inbox engine could not hold.
func eBig(cfg Config) (*Table, error) {
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	if cfg.Small {
		sizes = []int{32, 64}
	}
	t := &Table{
		ID:      "E-BIG",
		Title:   "Scaling study: Algorithm 1 APSP rounds vs n (fixed weight scale)",
		Headers: []string{"n", "Δ", "rounds", "bound 2n√Δ+2n", "rounds/n", "messages"},
	}
	var prevRounds, prevN float64
	var exps []float64
	for _, n := range sizes {
		g := graph.Random(n, 4*n, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
		delta := graph.Delta(g)
		sources := make([]int, n)
		for v := range sources {
			sources[v] = v
		}
		res, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: delta})
		if err != nil {
			return nil, err
		}
		// One parallel-backend reference matrix for the whole size: at
		// n=4096 this replaces 4096 sequential Dijkstra runs and also
		// cross-checks hop counts, which graph.APSP never recorded.
		want, err := compute.APSP(g, compute.Opts{})
		if err != nil {
			return nil, err
		}
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if res.Dist[s][v] != want.Dist[s*n+v] {
					return nil, fmt.Errorf("n=%d: wrong distance at (%d,%d)", n, s, v)
				}
				if res.Hops[s][v] != int64(want.Hops[s*n+v]) {
					return nil, fmt.Errorf("n=%d: wrong hop count at (%d,%d)", n, s, v)
				}
			}
		}
		t.AddRow(n, delta, res.Stats.Rounds, res.Bound,
			fmt.Sprintf("%.1f", float64(res.Stats.Rounds)/float64(n)), res.Stats.Messages)
		if prevN > 0 {
			exps = append(exps, math.Log(float64(res.Stats.Rounds)/prevRounds)/math.Log(float64(n)/prevN))
		}
		prevRounds, prevN = float64(res.Stats.Rounds), float64(n)
	}
	if len(exps) > 0 {
		sum := 0.0
		for _, e := range exps {
			sum += e
		}
		t.Note("fitted rounds ~ n^%.2f between consecutive sizes (paper predicts ~1 for fixed Δ, modulo Δ drift)", sum/float64(len(exps)))
	}
	t.Note("all distances and hop counts validated against the parallel compute backend at every size")
	return t, nil
}
