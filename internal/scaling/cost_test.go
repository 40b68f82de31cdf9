package scaling

import (
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestScalingCostPinned pins the engine cost of three seeded runs to the
// numbers recorded before the bit phases moved onto core.List. The list
// order, offer rule and send schedule decide every round and message, so
// any drift in the shared machinery shows here as a changed count.
func TestScalingCostPinned(t *testing.T) {
	cases := []struct {
		name        string
		g           *graph.Graph
		sources     []int
		stats       congest.Stats
		phaseRounds []int
	}{
		{
			name:        "zero-heavy",
			g:           graph.ZeroHeavy(40, 140, 0.6, graph.GenOpts{Seed: 11, MaxW: 9}),
			stats:       congest.Stats{Rounds: 461, Messages: 60536, MaxWords: 4, MaxLinkCongestion: 67, MaxNodeSends: 660},
			phaseRounds: []int{43, 61, 80, 107, 170},
		},
		{
			name:        "W>=2^14",
			g:           graph.Random(32, 110, graph.GenOpts{Seed: 12, MinW: 1, MaxW: 1 << 15, ZeroFrac: 0.1, Directed: true}),
			stats:       congest.Stats{Rounds: 2275, Messages: 121979, MaxWords: 4, MaxLinkCongestion: 72, MaxNodeSends: 744},
			phaseRounds: []int{39, 94, 114, 144, 215, 234, 236, 226, 218, 215, 203, 65, 70, 65, 67, 70},
		},
		{
			name:        "k<n",
			g:           graph.Random(48, 170, graph.GenOpts{Seed: 13, MaxW: 300, ZeroFrac: 0.25, Directed: true}),
			sources:     []int{0, 7, 19, 33, 41},
			stats:       congest.Stats{Rounds: 762, Messages: 28088, MaxWords: 4, MaxLinkCongestion: 22, MaxNodeSends: 160},
			phaseRounds: []int{11, 16, 26, 44, 64, 106, 125, 127, 126, 117},
		},
	}
	for _, c := range cases {
		if c.name == "W>=2^14" && c.g.MaxWeight() < 1<<14 {
			t.Fatalf("%s: max weight %d below 2^14", c.name, c.g.MaxWeight())
		}
		for _, sched := range []congest.Scheduler{congest.SchedulerActive, congest.SchedulerDense} {
			res, err := Run(c.g, Opts{Sources: c.sources, Engine: congest.Config{Scheduler: sched}})
			if err != nil {
				t.Fatalf("%s sched %d: %v", c.name, sched, err)
			}
			if res.Stats != c.stats {
				t.Errorf("%s sched %d: stats %+v, want %+v", c.name, sched, res.Stats, c.stats)
			}
			if !reflect.DeepEqual(res.PhaseRounds, c.phaseRounds) {
				t.Errorf("%s sched %d: phase rounds %v, want %v", c.name, sched, res.PhaseRounds, c.phaseRounds)
			}
		}
	}
}
