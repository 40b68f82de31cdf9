package hssp

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/bcast"
	"repro/internal/congest"
	"repro/internal/difftest"
	"repro/internal/faults"
	"repro/internal/graph"
)

// TestDifferentialSweep sweeps small instances of the full Algorithm 3
// pipeline against Dijkstra.
func TestDifferentialSweep(t *testing.T) {
	difftest.Search(t, difftest.Space{SeedsPerSize: 10, MaxK: 2, ZeroFrac: 0.3}, func(in difftest.Instance) error {
		res, err := Run(in.G, Opts{Sources: in.Sources, H: 3})
		if err != nil {
			return err
		}
		return difftest.SSSPOracle(in, res.Dist)
	})
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Random(22, 66, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.3, Directed: seed%2 == 0})
		res, err := Run(g, Opts{H: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.APSP(g)
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] != want[s][v] {
					t.Fatalf("seed %d: dist[%d][%d] = %d, want %d (|Q|=%d h=%d)",
						seed, s, v, res.Dist[s][v], want[s][v], len(res.Q), res.H)
				}
			}
		}
	}
}

func TestKSSP(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.Random(26, 90, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.25, Directed: true})
		sources := []int{0, 9, 17, 25}
		res, err := Run(g, Opts{Sources: sources, H: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, s := range sources {
			want := graph.Dijkstra(g, s)
			for v := 0; v < g.N(); v++ {
				if res.Dist[i][v] != want[v] {
					t.Fatalf("seed %d: dist[%d][%d] = %d, want %d", seed, s, v, res.Dist[i][v], want[v])
				}
			}
		}
	}
}

func TestAutoH(t *testing.T) {
	g := graph.Random(24, 80, graph.GenOpts{Seed: 2, MaxW: 4, ZeroFrac: 0.3, Directed: true})
	res, err := Run(g, Opts{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.H < 1 || res.H >= g.N() {
		t.Fatalf("auto H = %d out of range", res.H)
	}
	want := graph.APSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[s][v], want[s][v])
			}
		}
	}
}

func TestZeroHeavy(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.ZeroHeavy(20, 70, 0.6, graph.GenOpts{Seed: seed, MaxW: 7, Directed: true})
		res, err := Run(g, Opts{H: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := graph.APSP(g)
		for s := 0; s < g.N(); s++ {
			for v := 0; v < g.N(); v++ {
				if res.Dist[s][v] != want[s][v] {
					t.Fatalf("seed %d: dist[%d][%d] = %d, want %d", seed, s, v, res.Dist[s][v], want[s][v])
				}
			}
		}
	}
}

func TestGridWorkload(t *testing.T) {
	g := graph.Grid(5, 5, graph.GenOpts{Seed: 3, MaxW: 9, ZeroFrac: 0.2})
	res, err := Run(g, Opts{H: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := graph.APSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[s][v], want[s][v])
			}
		}
	}
	if res.PhaseRounds["cssp"] == 0 || res.PhaseRounds["broadcast"] == 0 {
		t.Fatalf("phase accounting empty: %v", res.PhaseRounds)
	}
}

func TestChooseHMonotoneInW(t *testing.T) {
	// Heavier weights should push toward smaller h (Δ ≈ hW grows with h).
	h1 := ChooseH(100, 100, 1, 0)
	h2 := ChooseH(100, 100, 1000, 0)
	if h2 > h1 {
		t.Fatalf("ChooseH grew with W: %d -> %d", h1, h2)
	}
	if h1 < 1 || h1 >= 100 {
		t.Fatalf("ChooseH out of range: %d", h1)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 3})
	if _, err := Run(g, Opts{Sources: []int{}}); err == nil {
		t.Fatal("empty source slice accepted")
	}
}

// oneRun routes engine run number run of a multi-run protocol through net
// and every other run through wire, counting the runs as they start.
type oneRun struct {
	congest.Network
	run, runs int
	net, wire congest.Network
}

func (o *oneRun) Reset(n int) {
	o.Network = o.wire
	if o.runs == o.run {
		o.Network = o.net
	}
	o.runs++
	o.Network.Reset(n)
}

// TestStep5UsesWhatTheNodeReceived removes one Step 4 delivery at one leaf
// v of the broadcast tree, for each round of the broadcast run in turn. Step
// 5 runs at each node from what the broadcast delivered to it, so some drop
// must change v's distances, and no drop may change another node's.
func TestStep5UsesWhatTheNodeReceived(t *testing.T) {
	g := graph.Random(20, 60, graph.GenOpts{Seed: 3, MaxW: 6, Directed: true})
	opts := Opts{Sources: []int{0, 7, 13}, H: 2}
	count := &oneRun{run: -1, wire: faults.New(faults.Plan{})}
	opts.Engine.Network = count
	base, err := Run(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Q) == 0 {
		t.Fatal("empty blocker set: Step 4 broadcasts nothing")
	}
	tree, _, err := bcast.BuildTree(g, 0, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := slices.IndexFunc(tree.Children, func(c []int) bool { return len(c) == 0 })
	changed := 0
	for r := 1; r <= base.PhaseRounds["broadcast"]; r++ {
		drop := &difftest.Unreliable{Script: []faults.Event{{Round: r, From: tree.Parent[v], To: v, Kind: faults.DropEvent}}}
		opts.Engine.Network = &oneRun{run: count.runs - 1, net: drop, wire: faults.New(faults.Plan{})}
		res, err := Run(g, opts)
		if err != nil {
			t.Fatalf("drop in round %d: %v", r, err)
		}
		for u := 0; u < g.N(); u++ {
			same := true
			for i := range res.Dist {
				same = same && res.Dist[i][u] == base.Dist[i][u]
			}
			switch {
			case u == v && !same:
				changed++
			case u != v && !same:
				t.Fatalf("dropping round %d's delivery to %d changed node %d's distances", r, v, u)
			}
		}
	}
	if changed == 0 {
		t.Fatalf("no dropped Step 4 delivery to node %d changed its distances: Step 5 does not read what the node received", v)
	}
}

// TestSimBlockerCostsPinned pins the logical costs of the benchmark's
// sim_blocker instance (n = 128, m = 512, seed 5, H = 4): every Stats field,
// every phase's rounds and |Q|. A change to any protocol Algorithm 3 runs
// that moves one of them re-pins it here on purpose.
func TestSimBlockerCostsPinned(t *testing.T) {
	g := graph.Random(128, 512, graph.GenOpts{Seed: 5, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	res, err := Run(g, Opts{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := congest.Stats{Rounds: 7487, Messages: 1028732, MaxWords: 4, MaxLinkCongestion: 3906, MaxNodeSends: 42966}
	if res.Stats != want {
		t.Errorf("Stats = %+v, want %+v", res.Stats, want)
	}
	wantPhases := map[string]int{"cssp": 620, "blocker": 744, "sssp": 906, "broadcast": 5217}
	if !maps.Equal(res.PhaseRounds, wantPhases) {
		t.Errorf("PhaseRounds = %v, want %v", res.PhaseRounds, wantPhases)
	}
	if len(res.Q) != 31 {
		t.Errorf("|Q| = %d, want 31", len(res.Q))
	}
}
