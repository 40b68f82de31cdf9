package core

import (
	"testing"

	"repro/internal/graph"
)

// TestProbeMatrix prints, for each pinned instance, which paper-mode knob
// combination loses a distance. Development aid for maintaining the
// counterexample tests; always passes.
func TestProbeMatrix(t *testing.T) {
	type inst struct {
		name    string
		g       *graph.Graph
		sources []int
		h       int
		delta   int64
	}
	g1, s1, h1, d1, _, _ := instanceEvict()
	g2, s2, h2, d2 := instanceGate()
	g3 := graph.New(8, true)
	for _, e := range [][3]int64{
		{0, 2, 0}, {1, 5, 3}, {2, 0, 5}, {2, 1, 3}, {2, 3, 0}, {3, 4, 2},
		{4, 0, 5}, {4, 2, 0}, {4, 5, 1}, {4, 6, 5}, {5, 0, 0}, {5, 6, 0},
		{6, 0, 4}, {6, 3, 0}, {7, 4, 5}, {7, 5, 3},
	} {
		g3.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	instances := []inst{
		{"evict", g1, s1, h1, d1},
		{"gate912", g2, s2, h2, d2},
		{"gate829", g3, []int{0, 2, 5}, 4, 6},
	}
	for _, in := range instances {
		for _, ev := range []EvictPolicy{EvictOnlySent, EvictAllInserts, EvictNonSPInserts} {
			for _, upd := range []bool{false, true} {
				res, err := RunLiteral(in.g, Opts{Sources: in.sources, H: in.h, Delta: in.delta},
					Literal{Evict: ev, GateByUpdatedKey: upd})
				if err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
				wrong := 0
				for i, s := range in.sources {
					want := graph.HHopDistances(in.g, s, in.h)
					for v := 0; v < in.g.N(); v++ {
						if res.Dist[i][v] != want[v] {
							wrong++
						}
					}
				}
				t.Logf("%s evict=%d updatedGate=%v wrong=%d", in.name, ev, upd, wrong)
			}
		}
	}
}
