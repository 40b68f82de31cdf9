package apsp

import (
	"bytes"
	"testing"
)

// The API-level tests are integration tests: they exercise the public
// surface exactly the way the examples and benchmarks do.

func TestPublicAPSPPipeline(t *testing.T) {
	g := RandomGraph(24, 80, GenOpts{Seed: 1, MaxW: 8, ZeroFrac: 0.3, Directed: true})
	res, err := PipelinedAPSP(g, 0)
	if err != nil {
		t.Fatalf("PipelinedAPSP: %v", err)
	}
	want := ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[s][v], want[s][v])
			}
		}
	}
	if res.Stats.Rounds == 0 || res.Bound == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestPublicBlockerAPSP(t *testing.T) {
	g := ZeroHeavyGraph(20, 70, 0.5, GenOpts{Seed: 3, MaxW: 6, Directed: true})
	res, err := BlockerAPSP(g, HSSPOpts{H: 3})
	if err != nil {
		t.Fatalf("BlockerAPSP: %v", err)
	}
	want := ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				t.Fatalf("dist[%d][%d] = %d, want %d", s, v, res.Dist[s][v], want[s][v])
			}
		}
	}
}

func TestPublicApprox(t *testing.T) {
	g := RandomGraph(20, 60, GenOpts{Seed: 5, MaxW: 9, ZeroFrac: 0.35, Directed: true})
	res, err := ApproxAPSP(g, ApproxOpts{Eps: 0.5})
	if err != nil {
		t.Fatalf("ApproxAPSP: %v", err)
	}
	stretch, mismatches := CheckApproxStretch(g, res)
	if mismatches != 0 {
		t.Fatalf("%d mismatches", mismatches)
	}
	if stretch > 1.5 {
		t.Fatalf("stretch %.4f", stretch)
	}
}

func TestPublicShortRange(t *testing.T) {
	g := GridGraph(4, 5, GenOpts{Seed: 2, MaxW: 5, ZeroFrac: 0.2})
	res, err := ShortRange(g, 0, 5)
	if err != nil {
		t.Fatalf("ShortRange: %v", err)
	}
	want := ExactSSSP(g, 0)
	for v := 0; v < g.N(); v++ {
		if res.Dist[0][v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[0][v], want[v])
		}
	}
}

func TestPublicShortRangeRefusesBadSeed(t *testing.T) {
	// A short or negative Seed row is an error, not a panic in node Init.
	g := GridGraph(1, 3, GenOpts{Seed: 1, MaxW: 2})
	for _, row := range [][]int64{{0}, {0, -1, 2}} {
		if _, err := ShortRangeKSource(g, ShortRangeOpts{Sources: []int{0}, H: 2, Seed: [][]int64{row}}); err == nil {
			t.Fatalf("Seed row %v accepted", row)
		}
	}
}

func TestPublicCSSSPAndBlocker(t *testing.T) {
	g := RandomGraph(18, 54, GenOpts{Seed: 7, MaxW: 5, ZeroFrac: 0.3, Directed: true})
	coll, err := BuildCSSSP(g, []int{0, 6, 12}, 3, 0)
	if err != nil {
		t.Fatalf("BuildCSSSP: %v", err)
	}
	if bad := coll.Verify(g); len(bad) != 0 {
		t.Fatalf("CSSSP violations: %v", bad[0])
	}
	blk, err := ComputeBlockerSet(g, coll)
	if err != nil {
		t.Fatalf("ComputeBlockerSet: %v", err)
	}
	if bad := VerifyBlockerCoverage(coll, blk.Q); len(bad) != 0 {
		t.Fatalf("uncovered: %v", bad[0])
	}
}

func TestPublicGraphIO(t *testing.T) {
	g := RandomGraph(10, 30, GenOpts{Seed: 9, MaxW: 7})
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed the graph")
	}
}

func TestPublicEstimateDelta(t *testing.T) {
	g := RandomGraph(30, 120, GenOpts{Seed: 2, MaxW: 12, ZeroFrac: 0.25, Directed: true})
	h := g.N() - 1
	est, stats, err := EstimateDelta(g, h)
	if err != nil {
		t.Fatalf("EstimateDelta: %v", err)
	}
	if est < DeltaOf(g) {
		t.Fatalf("estimate %d below true Δ", est)
	}
	// Using the estimate must preserve correctness and typically beats the
	// local fallback's round count.
	withEst, err := PipelinedAPSP(g, est)
	if err != nil {
		t.Fatalf("PipelinedAPSP: %v", err)
	}
	withFallback, err := PipelinedAPSP(g, 0)
	if err != nil {
		t.Fatalf("PipelinedAPSP: %v", err)
	}
	want := ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if withEst.Dist[s][v] != want[s][v] {
				t.Fatalf("estimate-Δ run wrong at (%d,%d)", s, v)
			}
		}
	}
	totalEst := withEst.Stats.Rounds + stats.Rounds
	t.Logf("rounds with Δ̂: %d (+%d estimation) vs fallback %d",
		withEst.Stats.Rounds, stats.Rounds, withFallback.Stats.Rounds)
	if totalEst > 2*withFallback.Stats.Rounds {
		t.Fatalf("estimation made things far worse: %d vs %d", totalEst, withFallback.Stats.Rounds)
	}
}

func TestPublicBaselines(t *testing.T) {
	g := RandomGraph(16, 48, GenOpts{Seed: 4, MaxW: 5, ZeroFrac: 0.3, Directed: true})
	bf, err := BellmanFordHKSSP(g, BellmanFordOpts{Sources: []int{0, 8}, H: 4})
	if err != nil {
		t.Fatalf("BellmanFordHKSSP: %v", err)
	}
	want := ExactHHop(g, 0, 4)
	for v := 0; v < g.N(); v++ {
		if bf.Dist[0][v] != want[v] {
			t.Fatalf("BF dist[%d] = %d, want %d", v, bf.Dist[0][v], want[v])
		}
	}
	uw, err := UnweightedAPSP(g)
	if err != nil {
		t.Fatalf("UnweightedAPSP: %v", err)
	}
	if uw.Stats.Rounds >= 2*g.N() {
		t.Fatalf("unweighted APSP rounds %d ≥ 2n", uw.Stats.Rounds)
	}
}
