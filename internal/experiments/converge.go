package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

func init() {
	register("E-CONV", eConv)
}

// eConv measures Algorithm 1's anytime behaviour: what fraction of the
// final shortest-path distances is already correct at intermediate rounds.
// The pipelined schedule sends small keys first, so distances should
// arrive roughly in key order — near-linear convergence rather than a
// last-minute burst.
func eConv(cfg Config) (*Table, error) {
	n, m := 40, 140
	if cfg.Small {
		n, m = 24, 80
	}
	t := &Table{
		ID:      "E-CONV",
		Title:   "Anytime behaviour: correct distances vs elapsed rounds (Alg 1 APSP)",
		Headers: []string{"round", "% of total rounds", "correct pairs", "fraction"},
	}
	g := graph.ZeroHeavy(n, m, 0.4, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, Directed: true})
	delta := graph.Delta(g)

	// First run to learn the total rounds, second run with snapshots.
	probe, err := core.APSP(g, delta)
	if err != nil {
		return nil, err
	}
	total := probe.Stats.Rounds
	if total < 4 {
		return nil, fmt.Errorf("E-CONV: run too short (%d rounds)", total)
	}
	marks := []int{total / 8, total / 4, total / 2, 3 * total / 4, total}
	sources := make([]int, n)
	for v := range sources {
		sources[v] = v
	}
	res, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: delta, SnapshotRounds: marks})
	if err != nil {
		return nil, err
	}
	want := graph.APSP(g)
	reachable := 0
	for s := 0; s < n; s++ {
		for v := 0; v < n; v++ {
			if want[s][v] < graph.Inf {
				reachable++
			}
		}
	}
	for _, mark := range marks {
		snap := res.Snapshots[mark]
		correct := 0
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if want[s][v] < graph.Inf && snap[s][v] == want[s][v] {
					correct++
				}
			}
		}
		t.AddRow(mark, fmt.Sprintf("%d%%", mark*100/total), correct,
			fmt.Sprintf("%.3f", float64(correct)/float64(reachable)))
	}
	t.Note("small keys are scheduled first, so close pairs resolve early — the pipeline is a usable anytime algorithm")
	return t, nil
}
