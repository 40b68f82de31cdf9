package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unweighted"
)

func init() {
	register("E-DELTA", eDelta)
}

// eDelta probes the Δ promise that Theorem I.1 assumes is known: the same
// APSP instance run with promises from the exact Δ up to 16× looser, plus
// the distributed estimate of unweighted.EstimateDelta. The proven bound
// scales with √Δ; the measured rounds respond non-monotonically, because a
// looser promise shrinks γ and schedules distance-heavy keys earlier while
// inflating the worst-case position budget.
func eDelta(cfg Config) (*Table, error) {
	n, m := 36, 130
	if cfg.Small {
		n, m = 24, 80
	}
	t := &Table{
		ID:      "E-DELTA",
		Title:   "Sensitivity to the Δ promise (same graph, Alg 1 APSP)",
		Headers: []string{"promise", "Δ used", "rounds", "bound", "rounds/bound", "maxList"},
	}
	g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 9, ZeroFrac: 0.25, Directed: true})
	truth := graph.Delta(g)
	want := graph.APSP(g)
	run := func(label string, delta int64) error {
		res, err := core.APSP(g, delta)
		if err != nil {
			return err
		}
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if res.Dist[s][v] != want[s][v] {
					return fmt.Errorf("%s: wrong distance at (%d,%d)", label, s, v)
				}
			}
		}
		t.AddRow(label, delta, res.Stats.Rounds, res.Bound,
			ratio(int64(res.Stats.Rounds), res.Bound), res.MaxListLen)
		return nil
	}
	for _, f := range []int64{1, 2, 4, 16} {
		if err := run(fmt.Sprintf("%d×Δ", f), f*truth); err != nil {
			return nil, err
		}
	}
	est, estRes, err := unweighted.EstimateDelta(g, n-1)
	if err != nil {
		return nil, err
	}
	if err := run("distributed Δ̂", est); err != nil {
		return nil, err
	}
	t.Note("Δ̂ estimation itself costs %d rounds (< 2n)", estRes.Stats.Rounds)
	t.Note("correctness holds for every valid promise; only the schedule shape changes")
	return t, nil
}
