package core

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/quickcheck"
)

// Property: the Pareto-pipelined (h,k)-SSP equals the sequential h-hop DP
// on arbitrary random instances — distances and minimal hop counts both.
func TestQuickHKSSPMatchesReference(t *testing.T) {
	f := func(seedRaw uint32, nRaw, hRaw, kRaw, zfRaw uint8) bool {
		seed := int64(seedRaw)
		n := 6 + int(nRaw%14)
		h := 1 + int(hRaw%7)
		k := 1 + int(kRaw%3)
		zf := float64(zfRaw%4) / 4.0
		g := graph.Random(n, 3*n, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: zf, Directed: seed%2 == 0})
		sources := make([]int, 0, k)
		for i := 0; i < k; i++ {
			sources = append(sources, (i*n)/k)
		}
		res, err := Run(g, Opts{Sources: sources, H: h})
		if err != nil {
			return false
		}
		for i, s := range sources {
			wantD, wantL := graph.HHopDistHops(g, s, h)
			for v := 0; v < n; v++ {
				if res.Dist[i][v] != wantD[v] {
					return false
				}
				if wantD[v] < graph.Inf && res.Hops[i][v] != int64(wantL[v]) {
					return false
				}
			}
		}
		return true
	}
	quickcheck.Check(t, f, 120)
}

// Property: the send schedule audit never reports an Invariant-1 violation
// (entries always arrive strictly before their schedule time).
func TestQuickInvariant1Holds(t *testing.T) {
	f := func(seedRaw uint32, hRaw uint8) bool {
		seed := int64(seedRaw)
		h := 2 + int(hRaw%8)
		g := graph.ZeroHeavy(16, 48, 0.5, graph.GenOpts{Seed: seed, MaxW: 5, Directed: true})
		sources := []int{0, 5, 10}
		delta := graph.HHopDelta(g, sources, h)
		if delta == 0 {
			delta = 1
		}
		res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta, Audit: true})
		if err != nil {
			return false
		}
		return res.Inv1Violations == 0
	}
	quickcheck.Check(t, f, 60)
}

// frontierCase runs the frontier property's instance for one generator
// seed and hop bound and returns Result.MaxPerSource beside min(h,Δ).
func frontierCase(t *testing.T, seed int64, h int) (maxPer int, minHDelta int64) {
	g := graph.Random(14, 42, graph.GenOpts{Seed: seed, MaxW: 7, ZeroFrac: 0.4, Directed: true})
	sources := []int{0, 7}
	delta := graph.HHopDelta(g, sources, h)
	if delta == 0 {
		delta = 1
	}
	res, err := Run(g, Opts{Sources: sources, H: h, Delta: delta})
	if err != nil {
		t.Fatalf("seed %#x h=%d: %v", seed, h, err)
	}
	return res.MaxPerSource, min(int64(h), delta)
}

// Property: Result.MaxPerSource never exceeds min(h,Δ)+2 under the Pareto
// discipline. The frontier at rest holds at most min(h,Δ)+1 entries per
// source (strictly falling d over strictly rising l); the diagnostic is
// sampled when a newcomer joins, before the entries it dominates leave
// (List.insertAt), so it reads one more. The fixed case is the instance
// testing/quick once found against the at-rest bound: Δ = 0 clamped to 1,
// so at most 2 entries at rest, and the diagnostic reads 3.
func TestQuickFrontierBound(t *testing.T) {
	if maxPer, hd := frontierCase(t, 0x6be927f0, 11); maxPer != 3 || hd != 1 {
		t.Errorf("seed 0x6be927f0 h=11: MaxPerSource %d with min(h,Δ) = %d, want 3 with 1", maxPer, hd)
	}
	f := func(seedRaw uint32, hRaw uint8) bool {
		maxPer, hd := frontierCase(t, int64(seedRaw), 2+int(hRaw%10))
		return int64(maxPer) <= hd+2
	}
	quickcheck.Check(t, f, 80)
}

// The MaxRounds guard must fire as an error, not hang, when set too low.
func TestMaxRoundsGuard(t *testing.T) {
	g := graph.Random(20, 60, graph.GenOpts{Seed: 1, MaxW: 5, Directed: true})
	_, err := Run(g, Opts{Sources: []int{0}, H: 10, Engine: congest.Config{MaxRounds: 2}})
	if err == nil {
		t.Fatal("MaxRounds=2 did not error")
	}
}

// The Trace hook must receive events and force single-worker execution.
func TestTraceHook(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 3})
	lines := 0
	_, err := Run(g, Opts{Sources: []int{0}, H: 3, Trace: func(string, ...interface{}) { lines++ }})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lines == 0 {
		t.Fatal("trace hook never called")
	}
}
