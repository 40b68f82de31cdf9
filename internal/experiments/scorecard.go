package experiments

import (
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/blocker"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cssp"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/scaling"
	"repro/internal/shortrange"
)

func init() {
	register("SCORECARD", scorecard)
}

// scorecard runs a check per paper claim and reports a verdict:
// CONFIRMED (measured as claimed), REFUTED (counterexample), or
// CONFIRMED* (confirmed for the repaired/restricted reading; see the
// note). It is the one-screen summary of the reproduction.
func scorecard(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "SCORECARD",
		Title:   "Reproduction scorecard: verdict per paper claim",
		Headers: []string{"claim", "statement", "verdict", "evidence"},
	}
	n := 28
	if cfg.Small {
		n = 18
	}
	g := graph.ZeroHeavy(n, 3*n+n/2, 0.4, graph.GenOpts{Seed: cfg.Seed, MaxW: 7, Directed: true})
	sources := []int{0, n / 3, 2 * n / 3}
	h := 5
	delta := graph.HHopDelta(g, sources, h)
	if delta == 0 {
		delta = 1
	}

	// --- Theorem I.1 / Lemma II.14: correctness and round bound.
	res, err := core.Run(g, core.Opts{Sources: sources, H: h, Delta: delta, Audit: true})
	if err != nil {
		return nil, err
	}
	exact := true
	for i, s := range sources {
		want := graph.HHopDistances(g, s, h)
		for v := 0; v < n; v++ {
			if res.Dist[i][v] != want[v] {
				exact = false
			}
		}
	}
	t.AddRow("Thm I.1 correctness", "(h,k)-SSP exact with zero weights",
		verdict(exact, "CONFIRMED*", "REFUTED"),
		"Pareto discipline; literal pseudocode refuted (see rows below)")
	t.AddRow("Thm I.1 rounds", "≤ 2√(khΔ)+k+h",
		verdict(int64(res.Stats.Rounds) <= res.Bound, "CONFIRMED", "EXCEEDED"),
		fmt.Sprintf("%d vs %d", res.Stats.Rounds, res.Bound))
	t.AddRow("Lemma II.12 (Inv 1)", "entries arrive before ⌈κ⌉+pos",
		verdict(res.Inv1Violations == 0, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("%d violations audited", res.Inv1Violations))
	t.AddRow("Lemma II.11 (Inv 2)", "per-source entries ≤ h/γ+1",
		verdict(res.Inv2Violations == 0, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("%d violations — correct runs can need min(h,Δ)+1 > h/γ+1 (finding F-1)", res.Inv2Violations))

	// --- The literal pseudocode: counterexample instances.
	lit := paperLiteralLoses()
	t.AddRow("Alg 1 INSERT eviction", "evict closest non-SP above on insert",
		verdict(lit, "REFUTED", "UNREPRODUCED"),
		"8-node instance loses an h-hop distance (core/counterexample_test.go)")

	// --- APSP regime: literal machinery is fine.
	gA := graph.Random(16, 48, graph.GenOpts{Seed: cfg.Seed, MaxW: 5, ZeroFrac: 0.3, Directed: true})
	deltaA := graph.Delta(gA)
	srcA := make([]int, gA.N())
	for v := range srcA {
		srcA[v] = v
	}
	resA, err := core.RunLiteral(gA, core.Opts{Sources: srcA, H: gA.N() - 1, Delta: deltaA, Audit: true},
		core.Literal{Evict: core.EvictAllInserts, GateByUpdatedKey: true})
	if err != nil {
		return nil, err
	}
	okA := resA.Inv2Violations == 0 && int64(resA.Stats.Rounds) <= resA.Bound
	wantA := graph.APSP(gA)
	for s := 0; s < gA.N(); s++ {
		for v := 0; v < gA.N(); v++ {
			if resA.Dist[s][v] != wantA[s][v] {
				okA = false
			}
		}
	}
	t.AddRow("Thm I.1(ii) APSP", "literal rules + 2n√Δ+2n in the APSP regime",
		verdict(okA, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("h=n−1: exact, Inv2=%d, %d ≤ %d rounds", resA.Inv2Violations, resA.Stats.Rounds, resA.Bound))

	// --- Lemma II.15: short-range.
	sr, err := shortrange.Run(g, shortrange.Opts{Sources: sources, H: h, Delta: delta})
	if err != nil {
		return nil, err
	}
	snapOK := true
	for i, s := range sources {
		want := graph.HHopDistances(g, s, h)
		for v := 0; v < n; v++ {
			if want[v] < graph.Inf && sr.Snap[i][v] > want[v] {
				snapOK = false
			}
		}
	}
	t.AddRow("Lemma II.15 dilation", "short-range ≤ h-hop values by ⌈Δγ⌉+h",
		verdict(snapOK, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("snapshot at round %d", sr.SnapRound))
	congOK := float64(sr.Stats.MaxLinkCongestion) <= math.Sqrt(float64(h))*math.Sqrt(float64(len(sources)))+2
	t.AddRow("Lemma II.15 congestion", "≤ √h per source (+O(1))",
		verdict(congOK, "CONFIRMED", "EXCEEDED"),
		fmt.Sprintf("measured %d for k=%d, h=%d", sr.Stats.MaxLinkCongestion, len(sources), h))

	// --- Lemma III.4: CSSSP.
	coll, err := cssp.Build(g, sources, h, 0, congest.Config{})
	if err != nil {
		return nil, err
	}
	csspOK := len(coll.Verify(g)) == 0 && len(coll.VerifyLemmas()) == 0
	t.AddRow("Lemma III.4 (CSSSP)", "2h-truncation yields a consistent collection",
		verdict(csspOK, "CONFIRMED*", "REFUTED"),
		"requires the repair phase of internal/cssp (finding F-3)")

	// --- Definition III.1 / Lemma III.8: blocker.
	blk, err := blocker.Compute(g, coll, congest.Config{})
	if err != nil {
		return nil, err
	}
	covOK := len(blocker.VerifyCoverage(coll, blk.Q)) == 0
	t.AddRow("Def III.1 coverage", "greedy Q hits every depth-h path",
		verdict(covOK, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("|Q| = %d", len(blk.Q)))
	updOK := true
	if len(blk.Q) > 0 {
		updOK = blk.PhaseRounds["descendants"]/len(blk.Q) <= len(sources)+h-1
	}
	t.AddRow("Lemma III.8 (Alg 4)", "descendant updates ≤ k+h−1 rounds per pick",
		verdict(updOK, "CONFIRMED", "EXCEEDED"),
		fmt.Sprintf("avg %v rounds/pick vs %d", avgPerPick(blk), len(sources)+h-1))

	// --- Theorems I.2/I.3: Algorithm 3 exact.
	a3, err := hssp.Run(g, hssp.Opts{H: h})
	if err != nil {
		return nil, err
	}
	a3OK := true
	wantAll := graph.APSP(g)
	for s := 0; s < n; s++ {
		for v := 0; v < n; v++ {
			if a3.Dist[s][v] != wantAll[s][v] {
				a3OK = false
			}
		}
	}
	t.AddRow("Thms I.2/I.3 (Alg 3)", "CSSSP+blocker+SSSP computes exact APSP",
		verdict(a3OK, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("%d rounds, |Q| = %d", a3.Stats.Rounds, len(a3.Q)))

	// --- Theorem I.5: approximation.
	apx, err := approx.Run(g, approx.Opts{Eps: 0.5})
	if err != nil {
		return nil, err
	}
	stretch, mism := approx.CheckStretch(g, apx)
	t.AddRow("Thm I.5 (approx)", "(1+ε) stretch with zero weights",
		verdict(mism == 0 && stretch <= 1.5, "CONFIRMED", "REFUTED"),
		fmt.Sprintf("stretch %.4f ≤ 1.50, %d mismatches", stretch, mism))

	// --- Sec. V future work.
	sc, err := scaling.Run(g, scaling.Opts{Sources: sources})
	if err != nil {
		return nil, err
	}
	scOK := true
	for i, s := range sources {
		want := graph.Dijkstra(g, s)
		for v := 0; v < n; v++ {
			if sc.Dist[i][v] != want[v] {
				scOK = false
			}
		}
	}
	t.AddRow("Sec. V future work", "pipelining + Gabow scaling (exact, ∝ log W)",
		verdict(scOK, "IMPLEMENTED", "REFUTED"),
		fmt.Sprintf("%d phases, %d rounds", sc.Bits+1, sc.Stats.Rounds))

	t.Note("CONFIRMED* = holds for the repaired reading; the literal pseudocode is refuted by pinned counterexamples")
	t.Note("full accounts: EXPERIMENTS.md findings F-1..F-4")
	return t, nil
}

// paperLiteralLoses replays the pinned 8-node eviction counterexample
// (core/counterexample_test.go) and reports whether the literal rules
// still lose node 3's distance (true = refutation reproduced).
func paperLiteralLoses() bool {
	g := graph.New(8, true)
	for _, e := range [][3]int64{
		{0, 2, 4}, {1, 2, 0}, {1, 7, 0}, {2, 4, 0}, {2, 6, 0}, {2, 6, 3},
		{2, 7, 3}, {3, 6, 3}, {4, 1, 0}, {4, 1, 2}, {4, 2, 0}, {5, 1, 5},
		{5, 3, 3}, {5, 7, 0}, {7, 3, 0}, {7, 6, 0},
	} {
		g.MustAddEdge(int(e[0]), int(e[1]), e[2])
	}
	res, err := core.RunLiteral(g, core.Opts{Sources: []int{0}, H: 4, Delta: 7},
		core.Literal{Evict: core.EvictAllInserts, GateByUpdatedKey: true})
	if err != nil {
		return false
	}
	return res.Dist[0][3] != 7 // truth is 7; the literal rules lose it
}

func verdict(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

func avgPerPick(blk *blocker.Result) string {
	if len(blk.Q) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(blk.PhaseRounds["descendants"])/float64(len(blk.Q)))
}
