package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scaling"
)

func init() {
	register("E-SCALE", eScale)
}

// eScale measures the repository's implementation of the paper's stated
// future work (Sec. V): pipelining + Gabow scaling. The claim to check is
// W-insensitivity — scaling rounds grow like log W while Theorem I.1(ii)'s
// pipelined APSP pays 2n√Δ — and the resulting crossover.
func eScale(cfg Config) (*Table, error) {
	n := 24
	if cfg.Small {
		n = 16
	}
	t := &Table{
		ID:      "E-SCALE",
		Title:   "Future work (Sec. V): pipelining + Gabow scaling vs Theorem I.1(ii)",
		Headers: []string{"W", "Δ", "scaling rounds", "phases", "Alg1 rounds", "winner"},
	}
	for _, w := range []int64{4, 64, 1024, 16384} {
		g := graph.Random(n, 3*n, graph.GenOpts{Seed: cfg.Seed, MinW: w / 4, MaxW: w, ZeroFrac: 0.1, Directed: true})
		delta := graph.Delta(g)
		sc, err := scaling.Run(g, scaling.Opts{})
		if err != nil {
			return nil, err
		}
		a1, err := core.APSP(g, delta)
		if err != nil {
			return nil, err
		}
		want := graph.APSP(g)
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if sc.Dist[s][v] != want[s][v] || a1.Dist[s][v] != want[s][v] {
					return nil, fmt.Errorf("W=%d: wrong distance at (%d,%d)", w, s, v)
				}
			}
		}
		winner := "Alg1"
		if sc.Stats.Rounds < a1.Stats.Rounds {
			winner = "scaling"
		}
		t.AddRow(w, delta, sc.Stats.Rounds, sc.Bits+1, a1.Stats.Rounds, winner)
	}
	t.Note("scaling rounds grow ~log W (phase count); Alg1 rounds grow ~√Δ — the crossover realizes Sec. V's hope")
	t.Note("messages carry the sender's previous-phase distance, resolving the per-source-weights obstacle deterministically")
	return t, nil
}
