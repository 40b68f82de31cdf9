// Package apsp is a from-scratch Go reproduction of
//
//	Udit Agarwal and Vijaya Ramachandran,
//	"Distributed Weighted All Pairs Shortest Paths Through Pipelining",
//	IPDPS 2019.
//
// It implements, on top of a faithful CONGEST-model simulator, every
// algorithm the paper describes: the pipelined (h,k)-SSP Algorithm 1 with
// its key κ = d·γ + l and multi-entry lists (Theorem I.1), the simplified
// short-range Algorithm 2 and its extension (Lemma II.15), consistent
// h-hop tree (CSSSP) construction (Sec. III-A), blocker-set computation
// including the pipelined score updates of Algorithm 4 (Sec. III-B), the
// composite Algorithm 3 realizing the W- and Δ-parameterized APSP/k-SSP
// bounds (Theorems I.2 and I.3), and the (1+ε)-approximate APSP of
// Theorem I.5 — together with the baselines the paper builds on
// (Lenzen–Peleg unweighted pipelining, positive-weight pipelining,
// distributed Bellman–Ford).
//
// Every distributed computation runs on the simulator in internal/congest,
// which enforces the model (one O(log n)-bit message per link direction
// per round) and reports rounds, messages and per-link congestion — the
// quantities the paper's theorems bound. Results are validated against
// sequential references (Dijkstra, Floyd–Warshall, h-hop dynamic
// programming).
//
// # Quick start
//
//	g := apsp.RandomGraph(64, 256, apsp.GenOpts{Seed: 1, MaxW: 16, ZeroFrac: 0.2})
//	res, err := apsp.PipelinedAPSP(g, 0)   // Theorem I.1(ii)
//	// res.Dist[s][v], res.Stats.Rounds, res.Bound ...
//
// # Reproduction findings
//
// The conference pseudocode of Algorithm 1 under-determines two rules, and
// the literal readings are incorrect on small instances this repository
// found (see internal/core and EXPERIMENTS.md): the INSERT eviction can
// discard a due-but-unsent entry that uniquely carries a downstream h-hop
// shortest path, and the Step 13 ν-gate can reject such an entry outright.
// The Pareto discipline — keep exactly the per-source Pareto frontier of
// (distance, hops) — retains the paper's keys and schedule, is provably
// correct, and is the only one this package runs; the paper-literal rules
// survive as internal/core.RunLiteral, which only the ablation experiments
// (A-LIT, SCORECARD) and the counterexample tests call.
package apsp
