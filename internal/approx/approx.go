// Package approx implements the paper's Theorem I.5 (Sec. IV): a
// deterministic (1+ε)-approximate APSP for non-negative polynomially
// bounded integer weights, zero-weight edges included.
//
// The paper's reduction is followed exactly:
//
//  1. compute zero-weight reachability — pairs at distance exactly 0 — by
//     running the pipelined unweighted APSP of [12] on the zero-arc
//     subgraph (internal/unweighted);
//  2. transform the graph: zero weights become 1, positive weights w
//     become n²·w, making every weight strictly positive while preserving
//     shortest paths to within the claimed factor;
//  3. run the positive-weight black box of Theorem IV.1 ([16], [18]) on
//     the transformed graph with accuracy ε/3.
//
// For step 3 this repository substitutes its own deterministic
// weight-scaling substrate (the technique family of [18]): for each
// distance scale 2^i the weights are rounded up to multiples of
// ρ_i ≈ ε·2^i/(3n) and a depth-bounded run of the positive-weight pipeline
// (internal/posweight — sound for positive weights) recovers distances in
// [2^i, 2^{i+1}) with additive error ≤ n·ρ_i ≤ (ε/3)·2^i. The round cost is
// O((n/ε + n)·log(n·maxW)) — the same shape (linear in n, polynomial in
// 1/ε, one log factor) as the paper's O((n/ε²)·log n) black box.
package approx

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/posweight"
	"repro/internal/unweighted"
)

// Opts configures a run.
type Opts struct {
	// Sources restricts the computation (nil = all pairs).
	Sources []int
	// Eps is the target stretch 1+Eps. Must be positive; the theorem's
	// analysis needs Eps > 3/n.
	Eps float64
	// Engine is the engine environment, handed whole to the engine run of
	// every phase (MaxRounds == 0 = the engine's default). Run annotates the
	// phase boundaries on its Observer via congest.SetPhase with the names
	// "zero" and "scale<i>" — the same keys as Result.PhaseRounds.
	Engine congest.Config
}

// Result reports approximate distances.
type Result struct {
	Sources []int
	// Scaled[i][v] is the approximate distance in the transformed graph
	// G' (weights n²·w, zeros → 1): an actual path weight in G', so
	// Scaled/n² ∈ [δ, (1+ε)·δ] per the paper's analysis. Zero-distance
	// pairs hold 0; unreachable pairs graph.Inf.
	Scaled [][]int64
	// N2 is the scale factor n².
	N2 int64
	// Stats accumulates all phases; PhaseRounds maps "zero" and
	// "scale<i>" to their rounds.
	Stats       congest.Stats
	PhaseRounds map[string]int
	// Scales is the number of distance scales run.
	Scales int
}

// Value returns the approximate distance for pair index (i, v) in original
// weight units, as a float64 (graph.Inf stays +Inf).
func (r *Result) Value(i, v int) float64 {
	s := r.Scaled[i][v]
	if s >= graph.Inf {
		return math.Inf(1)
	}
	return float64(s) / float64(r.N2)
}

// Run computes (1+ε)-approximate shortest path distances.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	if opts.Eps <= 0 {
		return nil, fmt.Errorf("approx: Eps must be positive, got %v", opts.Eps)
	}
	n := g.N()
	sources := opts.Sources
	if sources == nil {
		sources = make([]int, n)
		for v := range sources {
			sources[v] = v
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("approx: no sources")
	}
	n2 := int64(n) * int64(n)
	res := &Result{
		Sources:     append([]int(nil), sources...),
		N2:          n2,
		PhaseRounds: make(map[string]int),
	}

	// Step 1: zero-weight reachability.
	congest.SetPhase(opts.Engine.Observer, "zero")
	reach, zr, err := unweighted.ZeroReach(g, sources, opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("approx: zero reachability: %w", err)
	}
	res.Stats.Add(zr.Stats)
	res.PhaseRounds["zero"] = zr.Stats.Rounds

	// Step 2: the positive transform G'.
	gp := g.Transform(func(w int64) int64 {
		if w == 0 {
			return 1
		}
		return n2 * w
	})

	// Step 3: weight-scaling sweep. Distances in G' lie in
	// [1, (n−1)·(n²·maxW+1)].
	maxD := int64(n-1) * (n2*g.MaxWeight() + 1)
	if maxD < 1 {
		maxD = 1
	}
	epsP := opts.Eps / 3
	k := len(sources)
	best := make([][]int64, k)
	for i := range best {
		best[i] = make([]int64, n)
		for v := range best[i] {
			best[i][v] = graph.Inf
		}
	}
	scale := 0
	for lim := int64(1); ; lim *= 2 {
		// Per-hop round-up error totals ≤ n·ρ ≤ ε'·lim ≤ ε'·δ' for pairs
		// with δ' ≥ lim.
		rho := int64(epsP * float64(lim) / float64(n))
		if rho < 1 {
			rho = 1
		}
		// Depth covering distances ≤ 2·lim after rounding, plus the ≤ n−1
		// per-hop round-up slack.
		depth := (2*lim)/rho + int64(n)
		gs := gp.Transform(func(w int64) int64 { return (w + rho - 1) / rho })
		congest.SetPhase(opts.Engine.Observer, fmt.Sprintf("scale%d", scale))
		pr, err := posweight.Run(gs, posweight.Opts{Sources: sources, MaxDist: depth, Engine: opts.Engine})
		if err != nil {
			return nil, fmt.Errorf("approx: scale %d: %w", scale, err)
		}
		res.Stats.Add(pr.Stats)
		res.PhaseRounds[fmt.Sprintf("scale%d", scale)] = pr.Stats.Rounds
		for i := range sources {
			for v := 0; v < n; v++ {
				if d := pr.Dist[i][v]; d < graph.Inf {
					if est := d * rho; est < best[i][v] {
						best[i][v] = est
					}
				}
			}
		}
		scale++
		if lim >= maxD {
			break
		}
	}
	res.Scales = scale

	// Combine with zero reachability.
	res.Scaled = best
	for i := range sources {
		for v := 0; v < n; v++ {
			if reach[i][v] {
				res.Scaled[i][v] = 0
			}
		}
	}
	return res, nil
}

// CheckStretch validates a result against exact distances, returning the
// maximum observed multiplicative stretch over pairs with δ ≥ 1 and the
// number of structural mismatches (zero/unreachable classification).
func CheckStretch(g *graph.Graph, res *Result) (float64, int) {
	maxStretch := 1.0
	mismatches := 0
	for i, s := range res.Sources {
		exact := graph.Dijkstra(g, s)
		for v := 0; v < g.N(); v++ {
			d := exact[v]
			switch {
			case d >= graph.Inf:
				if res.Scaled[i][v] < graph.Inf {
					mismatches++
				}
			case d == 0:
				if res.Scaled[i][v] != 0 {
					mismatches++
				}
			default:
				if res.Scaled[i][v] >= graph.Inf {
					mismatches++
					continue
				}
				stretch := res.Value(i, v) / float64(d)
				if stretch < 1.0-1e-12 {
					mismatches++ // an underestimate would be a bug, not stretch
				}
				if stretch > maxStretch {
					maxStretch = stretch
				}
			}
		}
	}
	return maxStretch, mismatches
}
