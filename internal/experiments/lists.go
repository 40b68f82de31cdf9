package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/posweight"
)

func init() {
	register("E-INV", eInv)
	register("A-LIT", aLit)
	register("A-ZERO", aZero)
	register("A-LIST", aList)
}

// eInv audits the paper's Invariants 1 and 2 (Lemmas II.11/II.12) under
// the correct Pareto discipline, quantifying where the paper's accounting
// is tight and where the frontier exceeds it.
func eInv(cfg Config) (*Table, error) {
	n, m := 32, 110
	if cfg.Small {
		n, m = 20, 64
	}
	t := &Table{
		ID:    "E-INV",
		Title: "Invariant audit (Pareto discipline): list sizes and schedule health",
		Headers: []string{"graph", "h", "maxPerSrc", "h/γ+1 (paper)", "min(h,Δ)+2", "maxList",
			"γΔ+k (paper)", "inv1 viol", "late", "collisions"},
	}
	k := 8
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 6, ZeroFrac: 0.2, Directed: true})},
		{"zeroheavy", graph.ZeroHeavy(n, m, 0.6, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, Directed: true})},
		{"grid", graph.Grid(n/4, 4, graph.GenOpts{Seed: cfg.Seed, MaxW: 6, ZeroFrac: 0.3})},
	} {
		for _, h := range []int{6, 12} {
			sources := make([]int, 0, k)
			for i := 0; i < k; i++ {
				sources = append(sources, (i*fam.g.N())/k)
			}
			delta := graph.HHopDelta(fam.g, sources, h)
			if delta == 0 {
				delta = 1
			}
			res, err := core.Run(fam.g, core.Opts{Sources: sources, H: h, Delta: delta, Audit: true})
			if err != nil {
				return nil, err
			}
			gammaBound := int64(math.Sqrt(float64(int64(h)*delta)/float64(k))) + 1
			paretoBound := min(int64(h), delta) + 2
			listBound := int64(math.Sqrt(float64(int64(k)*int64(h)*delta))) + int64(k)
			t.AddRow(fam.name, h, res.MaxPerSource, gammaBound, paretoBound, res.MaxListLen,
				listBound, res.Inv1Violations, res.LateSends, res.Collisions)
		}
	}
	t.Note("maxPerSrc > h/γ+1 marks inputs where the paper's Invariant 2 budget would have had to drop needed entries")
	t.Note("min(h,Δ)+2 bounds maxPerSrc as sampled: a Pareto frontier at rest holds ≤ min(h,Δ)+1 per source, and the sample is taken as a newcomer joins, before the entries it dominates leave")
	return t, nil
}

// aLit measures the paper-literal machinery (core.RunLiteral's four
// readings) against the Pareto discipline of core.Run: how often each variant loses a distance, and that
// in the APSP regime (h = n−1) the literal machinery is correct and meets
// its bound.
func aLit(cfg Config) (*Table, error) {
	trials := 30
	n, m := 14, 36
	if cfg.Small {
		trials = 10
	}
	t := &Table{
		ID:      "A-LIT",
		Title:   "Ablation: paper-literal list rules vs Pareto (h-hop regime, h=4)",
		Headers: []string{"variant", "wrong pairs", "checked pairs", "underestimates"},
	}
	type runFn func(*graph.Graph, core.Opts) (*core.Result, error)
	literal := func(lit core.Literal) runFn {
		return func(g *graph.Graph, o core.Opts) (*core.Result, error) { return core.RunLiteral(g, o, lit) }
	}
	variants := []struct {
		name string
		run  runFn
	}{
		{"pareto (default)", core.Run},
		{"literal gate+evict", literal(core.Literal{Evict: core.EvictAllInserts, GateByUpdatedKey: true})},
		{"sender gate, evict all", literal(core.Literal{Evict: core.EvictAllInserts})},
		{"sender gate, evict nonSP", literal(core.Literal{Evict: core.EvictNonSPInserts})},
		{"sender gate, evict sent-only", literal(core.Literal{Evict: core.EvictOnlySent})},
	}
	for _, vr := range variants {
		wrong, under, total := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed + int64(trial), MaxW: 5, ZeroFrac: 0.25, Directed: true})
			sources := []int{0, n / 3, 2 * n / 3}
			h := 4
			delta := graph.HHopDelta(g, sources, h)
			if delta == 0 {
				delta = 1
			}
			res, err := vr.run(g, core.Opts{Sources: sources, H: h, Delta: delta})
			if err != nil {
				return nil, fmt.Errorf("%s trial %d: %w", vr.name, trial, err)
			}
			for i, s := range sources {
				want := graph.HHopDistances(g, s, h)
				for v := 0; v < n; v++ {
					total++
					if res.Dist[i][v] != want[v] {
						wrong++
						if res.Dist[i][v] < want[v] {
							under++
						}
					}
				}
			}
		}
		t.AddRow(vr.name, wrong, total, under)
	}
	t.Note("losses are always overestimates (missing paths); fabricating paths would be a different bug class")
	t.Note("in the APSP regime h=n−1 the literal rules are correct (see core.TestPaperModeAPSPRegime)")
	return t, nil
}

// aZero reproduces the paper's Sec. II motivation: the classical
// positive-weight pipelining breaks on zero-weight edges.
func aZero(cfg Config) (*Table, error) {
	n, m := 28, 90
	if cfg.Small {
		n, m = 18, 54
	}
	t := &Table{
		ID:      "A-ZERO",
		Title:   "Ablation: zero-weight edges vs the classical r=d+pos schedule",
		Headers: []string{"zeroFrac", "strict wrong", "lenient wrong", "lenient late sends", "Alg1 wrong", "pairs"},
	}
	for _, zf := range []float64{0, 0.25, 0.5, 0.75} {
		g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 6, ZeroFrac: zf, MinW: 1, Directed: true})
		sources := make([]int, n)
		for v := range sources {
			sources[v] = v
		}
		want := graph.APSP(g)
		count := func(dist [][]int64) int {
			w := 0
			for s := 0; s < n; s++ {
				for v := 0; v < n; v++ {
					if dist[s][v] != want[s][v] {
						w++
					}
				}
			}
			return w
		}
		strict, err := posweight.Run(g, posweight.Opts{Sources: sources, Strict: true})
		if err != nil {
			return nil, err
		}
		lenient, err := posweight.Run(g, posweight.Opts{Sources: sources})
		if err != nil {
			return nil, err
		}
		a1, err := core.APSP(g, graph.Delta(g))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", zf), count(strict.Dist), count(lenient.Dist),
			lenient.LateSends, count(a1.Dist), n*n)
	}
	t.Note("strict = the literature's equality-only send rule: exact without zero edges, lossy at every zero fraction above 0")
	t.Note("Algorithm 1 (rightmost) is exact at every zero fraction")
	return t, nil
}

// aList measures the value of Algorithm 1's multi-entry lists: the
// single-estimate pipeline cannot express h-hop semantics at all, and even
// for unrestricted APSP its lenient variant pays late-send penalties on
// zero-heavy graphs.
func aList(cfg Config) (*Table, error) {
	n, m := 28, 96
	if cfg.Small {
		n, m = 18, 60
	}
	t := &Table{
		ID:      "A-LIST",
		Title:   "Ablation: multi-entry lists (Alg 1) vs single best estimate",
		Headers: []string{"zeroFrac", "Alg1 rounds", "single-est rounds", "single-est late", "Alg1 maxPerSrc"},
	}
	for _, zf := range []float64{0, 0.4, 0.7} {
		g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed + 7, MaxW: 6, ZeroFrac: zf, MinW: 1, Directed: true})
		sources := make([]int, n)
		for v := range sources {
			sources[v] = v
		}
		delta := graph.Delta(g)
		a1, err := core.APSP(g, delta)
		if err != nil {
			return nil, err
		}
		se, err := posweight.Run(g, posweight.Opts{Sources: sources})
		if err != nil {
			return nil, err
		}
		want := graph.APSP(g)
		for s := 0; s < n; s++ {
			for v := 0; v < n; v++ {
				if a1.Dist[s][v] != want[s][v] || se.Dist[s][v] != want[s][v] {
					return nil, fmt.Errorf("zf=%.2f: wrong distance", zf)
				}
			}
		}
		t.AddRow(fmt.Sprintf("%.2f", zf), a1.Stats.Rounds, se.Stats.Rounds, se.LateSends, a1.MaxPerSource)
	}
	t.Note("for unrestricted APSP both are exact; only Alg 1 supports h-hop semantics (the CSSSP/blocker substrate)")
	return t, nil
}
