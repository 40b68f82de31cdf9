package apsp_test

import (
	"fmt"

	apsp "repro"
)

// ExamplePipelinedAPSP runs the paper's Algorithm 1 on a small fixed graph
// with a zero-weight edge and prints a distance with its cost report.
func ExamplePipelinedAPSP() {
	g := apsp.NewGraph(4, true)
	g.MustAddEdge(0, 1, 0) // zero-weight edges are the paper's point
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 0)
	g.MustAddEdge(0, 3, 9)

	res, err := apsp.PipelinedAPSP(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("d(0,3) =", res.Dist[0][3])
	fmt.Println("within bound:", int64(res.Stats.Rounds) <= res.Bound)
	// Output:
	// d(0,3) = 3
	// within bound: true
}

// ExamplePipelinedHKSSP computes hop-bounded distances from two sources.
func ExamplePipelinedHKSSP() {
	g := apsp.NewGraph(5, true)
	for v := 0; v < 4; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	res, err := apsp.PipelinedHKSSP(g, apsp.PipelineOpts{Sources: []int{0, 2}, H: 2})
	if err != nil {
		panic(err)
	}
	// Node 4 is 4 hops from source 0 (beyond h=2) but 2 hops from source 2.
	fmt.Println("from 0:", res.Dist[0][4] >= apsp.Inf)
	fmt.Println("from 2:", res.Dist[1][4])
	// Output:
	// from 0: true
	// from 2: 2
}

// ExampleReconstructPath extracts an actual shortest path.
func ExampleReconstructPath() {
	g := apsp.NewGraph(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 5)
	g.MustAddEdge(2, 3, 1)

	res, err := apsp.PipelinedAPSP(g, 0)
	if err != nil {
		panic(err)
	}
	path, err := apsp.ReconstructPath(g, res, 0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(path)
	// Output:
	// [0 1 2 3]
}

// ExampleApproxAPSP shows the (1+ε) approximation on a zero-weight pair.
func ExampleApproxAPSP() {
	g := apsp.NewGraph(3, true)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 4)

	res, err := apsp.ApproxAPSP(g, apsp.ApproxOpts{Eps: 0.5})
	if err != nil {
		panic(err)
	}
	fmt.Println("zero pair exact:", res.Scaled[0][1] == 0)
	fmt.Println("within stretch:", res.Value(0, 2) >= 4 && res.Value(0, 2) <= 6)
	// Output:
	// zero pair exact: true
	// within stretch: true
}

// ExampleScalingAPSP runs the future-work extension (pipelining + Gabow
// scaling) on a graph with weights far larger than the graph.
func ExampleScalingAPSP() {
	g := apsp.NewGraph(3, true)
	g.MustAddEdge(0, 1, 1000)
	g.MustAddEdge(1, 2, 2500)
	g.MustAddEdge(0, 2, 4000)

	res, err := apsp.ScalingAPSP(g, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("d(0,2) =", res.Dist[0][2], "phases:", res.Bits+1)
	// Output:
	// d(0,2) = 3500 phases: 13
}

// ExampleBuildCSSSP builds consistent h-hop trees and computes a blocker
// set for them.
func ExampleBuildCSSSP() {
	g := apsp.NewGraph(5, true)
	for v := 0; v < 4; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	coll, err := apsp.BuildCSSSP(g, []int{0, 1}, 2, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("violations:", len(coll.Verify(g)))
	blk, err := apsp.ComputeBlockerSet(g, coll)
	if err != nil {
		panic(err)
	}
	fmt.Println("covered:", len(apsp.VerifyBlockerCoverage(coll, blk.Q)) == 0)
	// Output:
	// violations: 0
	// covered: true
}

// ExampleShortRange runs Algorithm 2 for one source.
func ExampleShortRange() {
	g := apsp.NewGraph(4, false)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 0)
	g.MustAddEdge(2, 3, 2)

	res, err := apsp.ShortRange(g, 0, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("d(0,3) =", res.Dist[0][3], "congestion ≤ √h+2:", res.Stats.MaxLinkCongestion <= 3)
	// Output:
	// d(0,3) = 4 congestion ≤ √h+2: true
}

// Example_quickstart runs the paper's pipelined APSP (Algorithm 1, Theorem
// I.1) on a small random graph with zero-weight edges, reads the CONGEST
// cost against the paper's round bound, and validates against Dijkstra.
func Example_quickstart() {
	// A 64-node random digraph; a quarter of the edges weigh zero — the
	// regime that breaks classical pipelining and that this paper solves.
	g := apsp.RandomGraph(64, 256, apsp.GenOpts{Seed: 7, MaxW: 16, ZeroFrac: 0.25, Directed: true})

	res, err := apsp.PipelinedAPSP(g, 0) // Δ promise derived automatically
	if err != nil {
		panic(err)
	}
	fmt.Printf("n=%d m=%d Δ(used)=%d\n", g.N(), g.M(), res.Delta)
	fmt.Printf("rounds: %d   (paper bound 2n√Δ+2n = %d, ratio %.2f)\n",
		res.Stats.Rounds, res.Bound, float64(res.Stats.Rounds)/float64(res.Bound))
	fmt.Printf("messages: %d, max per-link congestion: %d\n",
		res.Stats.Messages, res.Stats.MaxLinkCongestion)
	fmt.Printf("largest list at any node: %d entries (multi-entry lists are the paper's key idea)\n",
		res.MaxListLen)

	// Every node ends with its distance from every source plus the last
	// edge of a shortest path (the CONGEST problem statement).
	fmt.Printf("d(0,%d) = %d via last edge (%d -> %d)\n",
		g.N()-1, res.Dist[0][g.N()-1], res.Parent[0][g.N()-1], g.N()-1)

	// Validate the whole matrix against sequential Dijkstra.
	want := apsp.ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if res.Dist[s][v] != want[s][v] {
				panic(fmt.Sprintf("mismatch at (%d,%d): %d vs %d", s, v, res.Dist[s][v], want[s][v]))
			}
		}
	}
	fmt.Println("validated: all", g.N()*g.N(), "distances match Dijkstra")
	// Output:
	// n=64 m=256 Δ(used)=1008
	// rounds: 318   (paper bound 2n√Δ+2n = 4159, ratio 0.08)
	// messages: 79505, max per-link congestion: 229
	// largest list at any node: 229 entries (multi-entry lists are the paper's key idea)
	// d(0,63) = 2 via last edge (3 -> 63)
	// validated: all 4096 distances match Dijkstra
}

// Example_zeroweights reproduces the paper's central motivation (Sec. II).
// The classical pipelined schedule r = d(s) + pos(s) of Lenzen–Peleg [12]
// is sound for positive integer weights but breaks on zero-weight edges:
// on a zero-weight chain an estimate arrives after its only send slot and
// is silently dropped. Algorithm 1's key κ = d·γ + l repairs this.
func Example_zeroweights() {
	// The zero-weight ladder: long zero chains inside layers, weighted
	// rungs between them — weighted distance and hop count diverge
	// maximally.
	g := apsp.LayeredZeroGraph(6, 8, apsp.GenOpts{Seed: 3, MaxW: 9, Directed: true})
	n := g.N()
	sources := make([]int, n)
	for v := range sources {
		sources[v] = v
	}
	want := apsp.ExactAPSP(g)
	countWrong := func(dist [][]int64) int {
		wrong := 0
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if dist[s][v] != want[s][v] {
					wrong++
				}
			}
		}
		return wrong
	}

	// 1. The classical schedule, strict (as in the unweighted literature).
	strict, err := apsp.PositiveWeightKSSP(g, apsp.PositiveWeightOpts{Sources: sources, Strict: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("classical pipeline (strict):  %4d wrong of %d, %d sends missed their slot\n",
		countWrong(strict.Dist), n*n, strict.MissedSends)

	// 2. The classical schedule with late sends allowed: correct again,
	// but the 2n-round guarantee is gone.
	lenient, err := apsp.PositiveWeightKSSP(g, apsp.PositiveWeightOpts{Sources: sources})
	if err != nil {
		panic(err)
	}
	fmt.Printf("classical pipeline (lenient): %4d wrong, %d late sends, %d rounds\n",
		countWrong(lenient.Dist), lenient.LateSends, lenient.Stats.Rounds)

	// 3. Algorithm 1: exact, and within its proven round budget.
	a1, err := apsp.PipelinedAPSP(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Algorithm 1 (this paper):     %4d wrong, %d rounds (bound %d)\n",
		countWrong(a1.Dist), a1.Stats.Rounds, a1.Bound)
	fmt.Printf("multi-entry lists held up to %d entries per source at a node\n", a1.MaxPerSource)
	// Output:
	// classical pipeline (strict):  1356 wrong of 2304, 12565 sends missed their slot
	// classical pipeline (lenient):    0 wrong, 1989 late sends, 84 rounds
	// Algorithm 1 (this paper):        0 wrong, 147 rounds (bound 2049)
	// multi-entry lists held up to 2 entries per source at a node
}

// Example_roadgrid is the k-SSP use case on a grid "road network". A
// handful of depots (sources) need h-hop-bounded shortest-path distances
// to every intersection — deliveries may traverse at most h road
// segments. This is the (h,k)-SSP problem of Theorem I.1(i), and
// zero-weight edges model free connectors (ramps, roundabouts).
func Example_roadgrid() {
	const rows, cols = 12, 12
	g := apsp.GridGraph(rows, cols, apsp.GenOpts{Seed: 11, MaxW: 9, ZeroFrac: 0.2})
	depots := []int{0, rows*cols - 1, (rows/2)*cols + cols/2} // two corners + center
	const h = 14                                              // delivery hop budget

	res, err := apsp.PipelinedHKSSP(g, apsp.PipelineOpts{Sources: depots, H: h})
	if err != nil {
		panic(err)
	}
	fmt.Printf("grid %dx%d, %d depots, hop budget %d\n", rows, cols, len(depots), h)
	fmt.Printf("rounds %d (paper bound 2√(khΔ)+k+h = %d)\n", res.Stats.Rounds, res.Bound)

	// Which intersections are unreachable within the hop budget from the
	// corner depot, and what does the budget cost in distance?
	unreach, tighter := 0, 0
	full := apsp.ExactSSSP(g, depots[0])
	for v := 0; v < g.N(); v++ {
		if res.Dist[0][v] >= apsp.Inf {
			unreach++
		} else if res.Dist[0][v] > full[v] {
			tighter++
		}
	}
	fmt.Printf("depot %d: %d intersections beyond %d hops, %d pay a detour premium vs unbounded routing\n",
		depots[0], unreach, h, tighter)

	// Validate against the h-hop dynamic-programming oracle.
	for i, s := range depots {
		want := apsp.ExactHHop(g, s, h)
		for v := 0; v < g.N(); v++ {
			if res.Dist[i][v] != want[v] {
				panic(fmt.Sprintf("mismatch at depot %d node %d", s, v))
			}
		}
	}
	fmt.Println("validated against the h-hop oracle")

	// A small distance field for the center depot (top-left corner of the
	// grid): per-node results.
	fmt.Println("center-depot distances, top-left 4x6 corner:")
	for r := 0; r < 4; r++ {
		for c := 0; c < 6; c++ {
			if d := res.Dist[2][r*cols+c]; d >= apsp.Inf {
				fmt.Printf("%5s", ".")
			} else {
				fmt.Printf("%5d", d)
			}
		}
		fmt.Println()
	}
	// Output:
	// grid 12x12, 3 depots, hop budget 14
	// rounds 43 (paper bound 2√(khΔ)+k+h = 163)
	// depot 0: 36 intersections beyond 14 hops, 26 pay a detour premium vs unbounded routing
	// validated against the h-hop oracle
	// center-depot distances, top-left 4x6 corner:
	//    13   13   13   13   13   17
	//    11   11   13   13   13   11
	//    11   10    9    9    9    9
	//    10   10   11   10    9    2
}

// Example_blockertour walks through the machinery of Sec. III on one graph:
// build the consistent h-hop trees (CSSSP), compute a blocker set with the
// greedy of Sec. III-B (including Algorithm 4's pipelined updates), then
// run the full Algorithm 3 and compare its cost to the plain pipelined
// APSP (the Theorems I.2/I.3 trade-off).
func Example_blockertour() {
	g := apsp.ZeroHeavyGraph(48, 192, 0.4, apsp.GenOpts{Seed: 5, MaxW: 12, Directed: true})
	sources := make([]int, g.N())
	for v := range sources {
		sources[v] = v
	}
	const h = 4

	// Step 1: the consistent h-hop tree collection.
	coll, err := apsp.BuildCSSSP(g, sources, h, 0)
	if err != nil {
		panic(err)
	}
	if bad := coll.Verify(g); len(bad) != 0 {
		panic(fmt.Sprintf("CSSSP inconsistent: %s", bad[0]))
	}
	deep := 0
	for i := range sources {
		for v := 0; v < g.N(); v++ {
			if coll.Hops[i][v] == int64(h) {
				deep++
			}
		}
	}
	fmt.Printf("CSSSP: %d trees of height ≤ %d, %d depth-%d leaves to cover, %d rounds\n",
		len(sources), h, deep, h, coll.Stats.Rounds)

	// Step 2: the blocker set.
	blk, err := apsp.ComputeBlockerSet(g, coll)
	if err != nil {
		panic(err)
	}
	if bad := apsp.VerifyBlockerCoverage(coll, blk.Q); len(bad) != 0 {
		panic(fmt.Sprintf("uncovered path: %s", bad[0]))
	}
	fmt.Printf("blocker: |Q| = %d picks %v…, phases %v\n", len(blk.Q), blk.Q[:min(6, len(blk.Q))], blk.PhaseRounds)

	// Steps 1–5 together: Algorithm 3 vs the plain pipelined APSP.
	a3, err := apsp.BlockerAPSP(g, apsp.HSSPOpts{H: h})
	if err != nil {
		panic(err)
	}
	a1, err := apsp.PipelinedAPSP(g, 0)
	if err != nil {
		panic(err)
	}
	want := apsp.ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if a3.Dist[s][v] != want[s][v] || a1.Dist[s][v] != want[s][v] {
				panic(fmt.Sprintf("wrong distance at (%d,%d)", s, v))
			}
		}
	}
	fmt.Printf("Algorithm 3: %d rounds (%v)\n", a3.Stats.Rounds, a3.PhaseRounds)
	fmt.Printf("Algorithm 1: %d rounds (bound %d)\n", a1.Stats.Rounds, a1.Bound)
	fmt.Println("both exact; the winner depends on W and Δ (Corollary I.4 — see experiment E-T1213)")
	// Output:
	// CSSSP: 48 trees of height ≤ 4, 307 depth-4 leaves to cover, 244 rounds
	// blocker: |Q| = 11 picks [7 6 38 10 23 27]…, phases map[claims:29 descendants:134 scores:29 select:74]
	// Algorithm 3: 1407 rounds (map[blocker:266 broadcast:645 cssp:244 sssp:252])
	// Algorithm 1: 215 rounds (bound 2351)
	// both exact; the winner depends on W and Δ (Corollary I.4 — see experiment E-T1213)
}

// Example_approxtrade is the (1+ε)-approximate APSP of Theorem I.5 on a
// graph with zero-weight edges — the case prior deterministic
// approximations ([16], [18]) could not handle. It sweeps ε and reports
// the rounds/accuracy frontier against the exact pipelined algorithm.
func Example_approxtrade() {
	g := apsp.ZeroHeavyGraph(40, 160, 0.35, apsp.GenOpts{Seed: 13, MaxW: 20, Directed: true})

	exact, err := apsp.PipelinedAPSP(g, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("exact (Algorithm 1): %6d rounds\n", exact.Stats.Rounds)

	for _, eps := range []float64{1.0, 0.5, 0.25} {
		res, err := apsp.ApproxAPSP(g, apsp.ApproxOpts{Eps: eps})
		if err != nil {
			panic(err)
		}
		stretch, mismatches := apsp.CheckApproxStretch(g, res)
		if mismatches != 0 {
			panic(fmt.Sprintf("eps=%v: %d structural mismatches", eps, mismatches))
		}
		fmt.Printf("ε=%.2f: %6d rounds across %d scales, worst stretch %.4f (claim ≤ %.2f)\n",
			eps, res.Stats.Rounds, res.Scales, stretch, 1+eps)
	}

	// Spot-check: zero-distance pairs are exact, not approximate.
	res, err := apsp.ApproxAPSP(g, apsp.ApproxOpts{Eps: 0.5})
	if err != nil {
		panic(err)
	}
	zeros := 0
	want := apsp.ExactAPSP(g)
	for s := 0; s < g.N(); s++ {
		for v := 0; v < g.N(); v++ {
			if want[s][v] == 0 && res.Scaled[s][v] == 0 {
				zeros++
			}
		}
	}
	fmt.Printf("zero-distance pairs handled exactly: %d (Sec. IV reachability phase)\n", zeros)
	// Output:
	// exact (Algorithm 1):    222 rounds
	// ε=1.00:   2591 rounds across 22 scales, worst stretch 1.0908 (claim ≤ 2.00)
	// ε=0.50:   4137 rounds across 22 scales, worst stretch 1.0448 (claim ≤ 1.50)
	// ε=0.25:   7225 rounds across 22 scales, worst stretch 1.0219 (claim ≤ 1.25)
	// zero-distance pairs handled exactly: 928 (Sec. IV reachability phase)
}

// Example_scalingdemo is the extension the paper's conclusion (Sec. V)
// poses as an open problem — the pipelined strategy under Gabow's scaling
// technique — implemented and measured. Each bit phase is a pipelined
// (h,k)-SSP run under per-source reduced costs with the tiny promise
// Δ ≤ n−1; the "each source sees a different edge weight" obstacle is
// resolved by carrying the sender's previous-phase distance in the
// message. Rounds become weight-insensitive (∝ log W), and the crossover
// against the Δ-sensitive Theorem I.1(ii) appears as weights grow.
func Example_scalingdemo() {
	const n = 24
	fmt.Printf("%8s %10s %16s %14s %10s\n", "W", "Δ", "scaling rounds", "Alg1 rounds", "winner")
	for _, w := range []int64{8, 128, 2048, 32768} {
		g := apsp.RandomGraph(n, 3*n, apsp.GenOpts{Seed: 5, MinW: w / 4, MaxW: w, Directed: true})
		delta := apsp.DeltaOf(g)

		sc, err := apsp.ScalingAPSP(g, nil)
		if err != nil {
			panic(err)
		}
		a1, err := apsp.PipelinedAPSP(g, delta)
		if err != nil {
			panic(err)
		}

		// Both must be exact.
		want := apsp.ExactAPSP(g)
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if sc.Dist[s][v] != want[s][v] || a1.Dist[s][v] != want[s][v] {
					panic(fmt.Sprintf("W=%d: wrong distance at (%d,%d)", w, s, v))
				}
			}
		}
		winner := "Alg1"
		if sc.Stats.Rounds < a1.Stats.Rounds {
			winner = "scaling"
		}
		fmt.Printf("%8d %10d %10d (%2d phases) %10d %10s\n",
			w, delta, sc.Stats.Rounds, sc.Bits+1, a1.Stats.Rounds, winner)
	}
	fmt.Println("scaling rounds track log W; Algorithm 1 tracks √Δ — Sec. V's hoped-for behaviour")
	// Output:
	//        W          Δ   scaling rounds    Alg1 rounds     winner
	//        8         38        262 ( 5 phases)        174       Alg1
	//      128        564        705 ( 8 phases)        587       Alg1
	//     2048       8820        975 (12 phases)       2236    scaling
	//    32768     164993       1082 (16 phases)       9573    scaling
	// scaling rounds track log W; Algorithm 1 tracks √Δ — Sec. V's hoped-for behaviour
}
