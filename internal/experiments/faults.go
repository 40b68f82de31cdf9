package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
)

func init() {
	register("E-FAULTS", eFaults)
}

// eFaults measures the reliability shim (internal/faults) under a sweep of
// adversarial plans: the logical CONGEST cost must be bit-identical to the
// fault-free run — that is the synchronizer's correctness claim — while
// the physical-delivery overhead (retransmits, duplicate suppressions,
// sub-rounds per logical round) quantifies what restoring synchrony costs.
// With Config.Faults set, only that plan is swept.
func eFaults(cfg Config) (*Table, error) {
	n, m := 48, 160
	if cfg.Small {
		n, m = 24, 80
	}
	g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})

	plans := []faults.Plan{
		{Seed: cfg.FaultSeed},              // perfect network, shim engaged
		{Seed: cfg.FaultSeed, MaxDelay: 4}, // delay only
		{Seed: cfg.FaultSeed, Drop: 0.2},   // drops + retransmit
		{Seed: cfg.FaultSeed, Dup: 0.1},    // duplication
		faults.All(cfg.FaultSeed),          // everything
	}
	if cfg.Faults != "" {
		nw, err := faults.Open(cfg.Faults, cfg.FaultSeed)
		if err != nil {
			return nil, err
		}
		plans = plans[:1] // "none": the perfect network under the shim
		if nw != nil {
			plans[0] = nw.Plan
		}
	}

	t := &Table{
		ID:      "E-FAULTS",
		Title:   "Adversarial delivery: logical invariance and the shim's physical cost",
		Headers: []string{"plan", "rounds", "messages", "physSends", "retrans", "dupDiscard", "subRounds/round"},
	}

	run := func(net congest.Network) ([][]int64, congest.Stats, error) {
		res, err := hssp.Run(g, hssp.Opts{Sources: []int{0, 1, 2}, Engine: congest.Config{Workers: cfg.Workers, Network: net}})
		if err != nil {
			return nil, congest.Stats{}, err
		}
		return res.Dist, res.Stats, nil
	}

	baseDist, baseStats, err := run(nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("(no shim)", baseStats.Rounds, baseStats.Messages, "-", "-", "-", "-")

	for _, p := range plans {
		nw := faults.New(p)
		dist, stats, err := run(nw)
		if err != nil {
			return nil, fmt.Errorf("plan %q: %w", p, err)
		}
		if !reflect.DeepEqual(dist, baseDist) {
			return nil, fmt.Errorf("plan %q: distances diverged from fault-free run", p)
		}
		if stats != baseStats {
			return nil, fmt.Errorf("plan %q: logical stats diverged: %+v vs %+v", p, stats, baseStats)
		}
		phys := nw.Phys()
		t.AddRow(p.String(), stats.Rounds, stats.Messages,
			phys.DataSends+phys.Retransmits+phys.DupCopies, phys.Retransmits,
			phys.DupDeliveries, ratio(phys.SubRounds, int64(stats.Rounds)))
	}
	t.Note("rounds and messages are asserted bit-identical to the fault-free baseline for every plan")
	t.Note("physSends counts all data transmissions incl. retransmits and injected duplicates")
	return t, nil
}
