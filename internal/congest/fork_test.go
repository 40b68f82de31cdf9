package congest_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hssp"
)

// The determinism contract on the parallel path: results and Stats are
// identical at any worker count. The engine forks a round only when its
// measured work pays for the barrier, which rounds this small seldom do
// (and -cpu 1 never allows), so each test forces the fork with
// congest.ForceFork and asserts that rounds did fork. Under -race this is
// what races real protocol nodes against each other.

// forked runs f under ForceFork(width) and fails the test if no round
// forked.
func forked(t *testing.T, width int, f func()) {
	t.Helper()
	stop := congest.ForceFork(width)
	f()
	if forks := stop(); forks == 0 {
		t.Fatalf("ForceFork(%d): no round forked, the parallel path went untested", width)
	}
}

// Algorithm 1 (core.Run, 3 sources, h = 9) on a zero-heavy digraph:
// distances, parents and Stats at Workers 2 and 8 equal the serial run's.
func TestDeterministicAcrossWorkersPipelined(t *testing.T) {
	g := graph.ZeroHeavy(30, 100, 0.5, graph.GenOpts{Seed: 17, MaxW: 8, Directed: true})
	sources := []int{0, 10, 20}
	h := 9
	delta := graph.HHopDelta(g, sources, h)
	run := func(workers int) *core.Result {
		res, err := core.Run(g, core.Opts{Sources: sources, H: h, Delta: delta, Engine: congest.Config{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	for _, w := range []int{2, 8} {
		var res *core.Result
		forked(t, w, func() { res = run(w) })
		if res.Stats != base.Stats {
			t.Fatalf("workers=%d changed stats: %+v vs %+v", w, res.Stats, base.Stats)
		}
		for i := range sources {
			for v := 0; v < g.N(); v++ {
				if res.Dist[i][v] != base.Dist[i][v] || res.Parent[i][v] != base.Parent[i][v] {
					t.Fatalf("workers=%d changed result at [%d][%d]", w, i, v)
				}
			}
		}
	}
}

// Algorithm 3 (hssp.Run, H = 4) on the sim_blocker workload's graph family
// at its size, n = 128: ~200 engine runs through every phase (CSSSP,
// blocker selection, Bellman–Ford SSSPs, tree broadcasts), forked in four
// against Workers: 1.
func TestDeterministicAcrossWorkersBlocker(t *testing.T) {
	n := 128
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 3, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	run := func(workers int) *hssp.Result {
		res, err := hssp.Run(g, hssp.Opts{H: 4, Engine: congest.Config{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	var res *hssp.Result
	forked(t, 4, func() { res = run(4) })
	if res.Stats != base.Stats {
		t.Fatalf("forked run changed stats: %+v vs %+v", res.Stats, base.Stats)
	}
	if !maps.Equal(res.PhaseRounds, base.PhaseRounds) {
		t.Fatalf("forked run changed phase rounds: %v vs %v", res.PhaseRounds, base.PhaseRounds)
	}
	if !slices.Equal(res.Q, base.Q) {
		t.Fatalf("forked run changed the blocker set: %v vs %v", res.Q, base.Q)
	}
	for i := range base.Dist {
		if !slices.Equal(res.Dist[i], base.Dist[i]) {
			t.Fatalf("forked run changed distances from source %d", base.Sources[i])
		}
	}
}
