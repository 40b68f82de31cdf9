package apsp

import (
	"io"

	"repro/internal/approx"
	"repro/internal/bellman"
	"repro/internal/blocker"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cssp"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/posweight"
	"repro/internal/scaling"
	"repro/internal/shortrange"
	"repro/internal/unweighted"
)

// Graph is a weighted graph with non-negative integer edge weights
// (zero-weight edges allowed), directed or undirected. Communication in
// the CONGEST model always uses the underlying undirected graph.
type Graph = graph.Graph

// Edge is a weighted arc of a Graph.
type Edge = graph.Edge

// GenOpts configures the random graph generators.
type GenOpts = graph.GenOpts

// Inf is the "unreachable" distance value.
const Inf = graph.Inf

// Stats is the CONGEST cost report of a distributed run: rounds, messages,
// maximum per-link congestion.
type Stats = congest.Stats

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int, directed bool) *Graph { return graph.New(n, directed) }

// RandomGraph returns a connected random graph with n nodes and m edges.
func RandomGraph(n, m int, opts GenOpts) *Graph { return graph.Random(n, m, opts) }

// GridGraph returns a rows×cols grid ("road network").
func GridGraph(rows, cols int, opts GenOpts) *Graph { return graph.Grid(rows, cols, opts) }

// ZeroHeavyGraph returns a connected random graph where roughly zeroFrac of
// the edges have weight zero — the adversarial regime the paper targets.
func ZeroHeavyGraph(n, m int, zeroFrac float64, opts GenOpts) *Graph {
	return graph.ZeroHeavy(n, m, zeroFrac, opts)
}

// LayeredZeroGraph returns the zero-weight ladder of layers×width nodes.
func LayeredZeroGraph(layers, width int, opts GenOpts) *Graph {
	return graph.LayeredZero(layers, width, opts)
}

// ReadGraph decodes a graph from the text edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Decode(r) }

// WriteGraph encodes a graph in the text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g) }

// ---------------------------------------------------------------------------
// The paper's primary contribution: the pipelined Algorithm 1.

// PipelineOpts configures a pipelined (h,k)-SSP run (Algorithm 1). Like
// every Opts type below it carries the engine environment — workers,
// scheduler, observer, fault network, checkpoint policy, context, round
// budget — as the one field Engine (a congest.Config); its zero value is
// the default engine.
type PipelineOpts = core.Opts

// PipelineResult reports distances, hop counts, parents and the measured
// schedule/list behaviour of an Algorithm 1 run.
type PipelineResult = core.Result

// PipelinedHKSSP computes h-hop shortest paths from k sources
// (Theorem I.1(i): 2√(khΔ) + k + h rounds). The list discipline is the
// Pareto frontier and the send rule is the ≥ form of ⌈κ⌉+pos = r: no
// paper-literal rule is reachable through it. The literal ν-gate and
// eviction rules lose distances (internal/core's RunLiteral serves the
// ablation experiments), and the equality send rule exists only as
// PositiveWeightOpts.Strict, for the A-ZERO ablation.
func PipelinedHKSSP(g *Graph, opts PipelineOpts) (*PipelineResult, error) {
	return core.Run(g, opts)
}

// PipelinedAPSP computes all-pairs shortest paths with the pipelined
// algorithm (Theorem I.1(ii): 2n√Δ + 2n rounds). delta is the promised
// bound on shortest-path distances (0 derives a safe bound).
func PipelinedAPSP(g *Graph, delta int64) (*PipelineResult, error) {
	return core.APSP(g, delta)
}

// PipelinedKSSP computes shortest paths from the given sources
// (Theorem I.1(iii)).
func PipelinedKSSP(g *Graph, sources []int, delta int64) (*PipelineResult, error) {
	return core.KSSP(g, sources, delta)
}

// ReconstructPath rebuilds the recorded shortest path from res.Sources[i]
// to v, validating every edge. For unrestricted runs it always succeeds;
// for hop-bounded runs it can fail with a diagnostic because a prefix of
// an h-hop shortest path need not be an h-hop shortest path (the paper's
// Figure 1) — use BuildCSSSP for consistent h-hop paths.
func ReconstructPath(g *Graph, res *PipelineResult, i, v int) ([]int, error) {
	return core.ReconstructPath(g, res, i, v)
}

// PathError is the typed error of ReconstructPath; match its Kind against
// the ErrPath* sentinels with errors.Is. The serving layer (cmd/apspd)
// maps these onto HTTP statuses, and any caller feeding untrusted queries
// or deserialized matrices into ReconstructPath gets a typed error rather
// than a panic or an unbounded walk.
type PathError = core.PathError

// Path reconstruction failure kinds (see PathError).
var (
	ErrPathSourceRange  = core.ErrPathSourceRange
	ErrPathNodeRange    = core.ErrPathNodeRange
	ErrPathUnreachable  = core.ErrPathUnreachable
	ErrPathCycle        = core.ErrPathCycle
	ErrPathBroken       = core.ErrPathBroken
	ErrPathBadArc       = core.ErrPathBadArc
	ErrPathInconsistent = core.ErrPathInconsistent
	ErrPathMalformed    = core.ErrPathMalformed
)

// ---------------------------------------------------------------------------
// Algorithm 2: short-range.

// ShortRangeOpts configures a short-range run.
type ShortRangeOpts = shortrange.Opts

// ShortRangeResult reports short-range distances, the snapshot at the
// claimed round and congestion.
type ShortRangeResult = shortrange.Result

// ShortRange runs the simplified short-range Algorithm 2 for one source
// with γ = √h (Lemma II.15).
func ShortRange(g *Graph, source, h int) (*ShortRangeResult, error) {
	return shortrange.SingleSource(g, source, h)
}

// ShortRangeExtension extends already-known distances (seed: node → known
// distance) by the short-range schedule.
func ShortRangeExtension(g *Graph, seed map[int]int64, h int) (*ShortRangeResult, error) {
	return shortrange.Extension(g, seed, h)
}

// ShortRangeKSource runs the k-source short-range generalization with
// γ = √(hk/Δ).
func ShortRangeKSource(g *Graph, opts ShortRangeOpts) (*ShortRangeResult, error) {
	return shortrange.Run(g, opts)
}

// ---------------------------------------------------------------------------
// Section III: CSSSP, blocker sets, and Algorithm 3.

// CSSSPCollection is a consistent h-hop tree collection (Definition III.3).
type CSSSPCollection = cssp.Collection

// BuildCSSSP constructs the h-hop CSSSP collection for the sources by the
// paper's 2h-truncation (Lemma III.4) plus this repository's repair phase.
func BuildCSSSP(g *Graph, sources []int, h int, delta int64) (*CSSSPCollection, error) {
	return cssp.Build(g, sources, h, delta, congest.Config{})
}

// BlockerResult reports a blocker set and its computation cost.
type BlockerResult = blocker.Result

// ComputeBlockerSet computes a blocker set for the collection
// (Definition III.1, Sec. III-B, including Algorithm 4).
func ComputeBlockerSet(g *Graph, coll *CSSSPCollection) (*BlockerResult, error) {
	return blocker.Compute(g, coll, congest.Config{})
}

// VerifyBlockerCoverage checks Definition III.1 (every depth-h root-to-leaf
// path hits Q) and returns the violations.
func VerifyBlockerCoverage(coll *CSSSPCollection, q []int) []string {
	return blocker.VerifyCoverage(coll, q)
}

// HSSPOpts configures the composite Algorithm 3.
type HSSPOpts = hssp.Opts

// HSSPResult reports Algorithm 3's exact distances and per-phase costs.
type HSSPResult = hssp.Result

// BlockerAPSP computes exact all-pairs shortest paths with Algorithm 3
// (Theorems I.2/I.3; h chosen automatically when opts.H == 0).
func BlockerAPSP(g *Graph, opts HSSPOpts) (*HSSPResult, error) {
	return hssp.Run(g, opts)
}

// ---------------------------------------------------------------------------
// Section IV: approximation.

// ApproxOpts configures the (1+ε)-approximate APSP.
type ApproxOpts = approx.Opts

// ApproxResult reports scaled approximate distances; use Value for original
// units and CheckApproxStretch to validate.
type ApproxResult = approx.Result

// ApproxAPSP computes (1+ε)-approximate all-pairs shortest paths
// (Theorem I.5), zero-weight edges included.
func ApproxAPSP(g *Graph, opts ApproxOpts) (*ApproxResult, error) {
	return approx.Run(g, opts)
}

// CheckApproxStretch validates an approximate result against exact
// distances: it returns the maximum stretch and the number of structural
// mismatches (which must be zero).
func CheckApproxStretch(g *Graph, res *ApproxResult) (float64, int) {
	return approx.CheckStretch(g, res)
}

// ---------------------------------------------------------------------------
// The paper's future work (Sec. V), implemented.

// ScalingOpts configures the scaling extension.
type ScalingOpts = scaling.Opts

// ScalingResult reports the scaling extension's distances and per-phase
// costs.
type ScalingResult = scaling.Result

// ScalingAPSP computes exact shortest paths by combining the pipelined
// strategy with Gabow's bit scaling — the extension the paper's conclusion
// poses as an open problem. Each bit phase is an (h,k)-SSP instance with
// per-source reduced costs and the tiny promise Δ ≤ n−1; messages carry
// the sender's previous-phase distance so receivers form reduced costs
// locally, resolving the paper's "each source sees a different edge
// weight" obstacle deterministically. Rounds scale with log W instead of
// √Δ. Pass nil sources for all-pairs.
func ScalingAPSP(g *Graph, sources []int) (*ScalingResult, error) {
	return scaling.Run(g, scaling.Opts{Sources: sources})
}

// ---------------------------------------------------------------------------
// Baselines.

// BellmanFordOpts configures the distributed Bellman–Ford baseline.
type BellmanFordOpts = bellman.Opts

// BellmanFordResult is the Bellman–Ford baseline's report.
type BellmanFordResult = bellman.Result

// BellmanFordHKSSP runs the h-hop k-source distributed Bellman–Ford
// baseline (h·k rounds).
func BellmanFordHKSSP(g *Graph, opts BellmanFordOpts) (*BellmanFordResult, error) {
	return bellman.Run(g, opts)
}

// PositiveWeightOpts configures the classical positive-weight pipeline.
type PositiveWeightOpts = posweight.Opts

// PositiveWeightResult is the positive-weight pipeline's report.
type PositiveWeightResult = posweight.Result

// PositiveWeightKSSP runs the classical single-estimate pipelined k-SSP
// ([12]/[17]): sound for positive weights, demonstrably broken by
// zero-weight edges (the paper's motivation).
func PositiveWeightKSSP(g *Graph, opts PositiveWeightOpts) (*PositiveWeightResult, error) {
	return posweight.Run(g, opts)
}

// UnweightedAPSP runs the pipelined unweighted APSP of [12] (< 2n rounds).
func UnweightedAPSP(g *Graph) (*PositiveWeightResult, error) {
	return unweighted.APSP(g)
}

// EstimateDelta computes a distributed upper bound on h-hop shortest-path
// distances in under 2n rounds (min(h, hop-eccentricity)·maxWeight) —
// usually far below the local fallback h·maxWeight, which shrinks
// Algorithm 1's *proven* round bound 2√(khΔ)+k+h proportionally to √Δ̂/Δ.
// Note the measured rounds can move either way: a smaller Δ promise means
// a larger γ, which schedules distance-heavy keys later even when lists
// stay small (see TestPublicEstimateDelta for a case where the fallback
// run finishes earlier despite its looser guarantee). Use the estimate
// when the worst-case guarantee matters; pass it as PipelineOpts.Delta and
// add the returned Stats to the total cost.
func EstimateDelta(g *Graph, h int) (int64, Stats, error) {
	d, res, err := unweighted.EstimateDelta(g, h)
	if err != nil {
		return 0, Stats{}, err
	}
	return d, res.Stats, nil
}

// ---------------------------------------------------------------------------
// Sequential references (for validation; these are not distributed).

// ExactAPSP returns the exact all-pairs distance matrix via n Dijkstra
// runs — the validation oracle, not a CONGEST algorithm.
func ExactAPSP(g *Graph) [][]int64 { return graph.APSP(g) }

// ExactSSSP returns exact single-source distances via Dijkstra.
func ExactSSSP(g *Graph, source int) []int64 { return graph.Dijkstra(g, source) }

// ExactHHop returns exact h-hop-bounded distances from source.
func ExactHHop(g *Graph, source, h int) []int64 { return graph.HHopDistances(g, source, h) }

// DeltaOf returns the maximum finite shortest-path distance (the paper's
// Δ) — computed sequentially, for setting promises in experiments.
func DeltaOf(g *Graph) int64 { return graph.Delta(g) }
