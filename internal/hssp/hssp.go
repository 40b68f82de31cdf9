// Package hssp implements the paper's Algorithm 3 (Sec. III): the faster
// k-SSP / APSP algorithm built from an h-hop CSSSP collection, a blocker
// set, per-blocker exact SSSP computations, and a global broadcast.
//
//	Step 1  h-hop CSSSP for the sources (internal/cssp, via Algorithm 1
//	        with hop bound 2h — Lemma III.5)
//	Step 2  blocker set Q for the collection (internal/blocker)
//	Step 3  for each c ∈ Q in sequence: exact SSSP from c and to c
//	        (distributed Bellman–Ford, as in [3])
//	Step 4  broadcast δ(x,c) for every source x and blocker c
//	Step 5  local, at each node v as Step 4 delivers each δ(x,c):
//	        δ(x,v) = min(short-range value, min_c δ(x,c)+δ(c,v))
//
// Round complexity (Lemma III.2): O(n·q + √(Δhk)) with q = |Q| =
// O((n log n)/h); choosing h per Theorems I.2/I.3 yields the headline
// bounds O(W^{1/4}·n·k^{1/4}·log^{1/2} n) and O((Δkn²log²n)^{1/3}).
package hssp

import (
	"fmt"
	"math"

	"repro/internal/bcast"
	"repro/internal/bellman"
	"repro/internal/blocker"
	"repro/internal/congest"
	"repro/internal/cssp"
	"repro/internal/graph"
)

// Opts configures a run.
type Opts struct {
	// Sources is the source set (k-SSP); nil means every node (APSP).
	Sources []int
	// H is the hop parameter; 0 selects it automatically by minimizing the
	// predicted round cost (Theorem I.2/I.3 style balancing).
	H int
	// Delta, if known, bounds the 2h-hop shortest-path distances for the
	// CSSSP phase (0 = derive a safe bound).
	Delta int64
	// Engine is the engine environment, handed whole to every engine run
	// of every phase (MaxRounds == 0 = each sub-protocol's own bound). Run
	// annotates the phase boundaries on its Observer via congest.SetPhase
	// with the names "cssp", "blocker", "sssp" and "broadcast" — the same
	// keys as Result.PhaseRounds — so a phase-attributing observer
	// (obs.Recorder) produces a breakdown that sums exactly to Result.Stats.
	Engine congest.Config
	// Obs is a second spelling of Engine.Observer; Run tees the two. It
	// exists for benchmark/sim.go, which names it in a keyed literal, and
	// goes when that file hands its observer in Engine instead.
	Obs congest.Observer
}

// Result reports exact (unrestricted) shortest-path distances.
type Result struct {
	Sources []int
	// Dist[i][v]: δ(Sources[i], v).
	Dist [][]int64
	// Q is the blocker set used.
	Q []int
	// H is the hop parameter used.
	H int
	// Stats accumulates all phases; PhaseRounds breaks them down
	// ("cssp", "blocker", "sssp", "broadcast").
	Stats       congest.Stats
	PhaseRounds map[string]int
}

// ChooseH picks the hop parameter minimizing the predicted cost
// n·q(h) + √(Δ·h·k) with q(h) = (n ln n)/h and Δ ≈ min(given, h·W): the
// balancing act behind Theorems I.2 and I.3.
func ChooseH(n, k int, maxW, delta int64) int {
	if n < 2 {
		return 1
	}
	bestH, bestCost := 1, math.Inf(1)
	lnN := math.Log(float64(n))
	for h := 1; h < n; h++ {
		d := float64(h) * float64(maxW)
		if delta > 0 && float64(delta) < d {
			d = float64(delta)
		}
		if d < 1 {
			d = 1
		}
		cost := float64(n)*float64(n)*lnN/float64(h) + math.Sqrt(d*float64(h)*float64(k))
		if cost < bestCost {
			bestCost, bestH = cost, h
		}
	}
	return bestH
}

// Run executes Algorithm 3.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	n := g.N()
	sources := opts.Sources
	if sources == nil {
		sources = make([]int, n)
		for v := range sources {
			sources[v] = v
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("hssp: no sources")
	}
	k := len(sources)
	h := opts.H
	if h == 0 {
		h = ChooseH(n, k, g.MaxWeight(), opts.Delta)
	}
	// Clamp to [1, max(1, n−1)]: h ≥ n makes the blocker machinery
	// pointless, and the CSSSP phase needs h ≥ 1 even on trivial graphs.
	if h > n-1 {
		h = n - 1
	}
	if h < 1 {
		h = 1
	}
	res := &Result{Sources: append([]int(nil), sources...), H: h, PhaseRounds: make(map[string]int)}
	engineCfg := opts.Engine
	if opts.Obs != nil { // the benchmark's Obs field (benchmark/sim.go)
		engineCfg.Observer = congest.Tee(engineCfg.Observer, opts.Obs)
	}

	// Step 1: CSSSP.
	congest.SetPhase(engineCfg.Observer, "cssp")
	coll, err := cssp.Build(g, sources, h, opts.Delta, engineCfg)
	if err != nil {
		return nil, fmt.Errorf("hssp: step 1: %w", err)
	}
	res.Stats.Add(coll.Stats)
	res.PhaseRounds["cssp"] = coll.Stats.Rounds

	// Step 2: blocker set.
	congest.SetPhase(engineCfg.Observer, "blocker")
	blk, err := blocker.Compute(g, coll, engineCfg)
	if err != nil {
		return nil, fmt.Errorf("hssp: step 2: %w", err)
	}
	res.Stats.Add(blk.Stats)
	res.PhaseRounds["blocker"] = blk.Stats.Rounds
	res.Q = blk.Q

	// Step 3: per-blocker forward and reverse SSSP, sequentially.
	congest.SetPhase(engineCfg.Observer, "sssp")
	q := len(blk.Q)
	fromC := make([][]int64, q) // fromC[j][v] = δ(c_j, v), known at v
	toC := make([][]int64, q)   // toC[j][u] = δ(u, c_j), known at u
	for j, c := range blk.Q {
		fwd, err := bellman.FullSSSP(g, c, engineCfg)
		if err != nil {
			return nil, fmt.Errorf("hssp: step 3 (from %d): %w", c, err)
		}
		res.Stats.Add(fwd.Stats)
		res.PhaseRounds["sssp"] += fwd.Stats.Rounds
		fromC[j] = fwd.Dist[0]
		rev, err := bellman.FullReverseSSSP(g, c, engineCfg)
		if err != nil {
			return nil, fmt.Errorf("hssp: step 3 (to %d): %w", c, err)
		}
		res.Stats.Add(rev.Stats)
		res.PhaseRounds["sssp"] += rev.Stats.Rounds
		toC[j] = rev.Dist[0]
	}

	// Step 4: broadcast δ(x, c) for every source x, blocker c. The value
	// δ(x,c) lives at node x after the reverse run; gather all pairs to a
	// BFS-tree root and broadcast them.
	congest.SetPhase(engineCfg.Observer, "broadcast")
	tree, st, err := bcast.BuildTree(g, 0, engineCfg)
	res.Stats.Add(st)
	res.PhaseRounds["broadcast"] += st.Rounds
	if err != nil {
		return nil, fmt.Errorf("hssp: step 4 tree: %w", err)
	}
	items := make([][]bcast.Vec, n)
	for i, x := range sources {
		for j := range blk.Q {
			if d := toC[j][x]; d < graph.Inf {
				items[x] = append(items[x], bcast.Vec{int64(i), int64(j), d})
			}
		}
	}
	gathered, st, err := bcast.Gather(g, tree, items, engineCfg)
	res.Stats.Add(st)
	res.PhaseRounds["broadcast"] += st.Rounds
	if err != nil {
		return nil, fmt.Errorf("hssp: step 4 gather: %w", err)
	}

	// Step 5, at each node as Step 4 delivers: node v's row starts at its
	// ≤2h-hop short-range values and folds in δ(x_i,c_j) + δ(c_j,v).
	rows, st, err := bcast.Broadcast(g, tree, gathered, transpose(coll.RawDist), func(v int, row []int64, x bcast.Vec) {
		if d := fromC[x[1]][v]; d < graph.Inf {
			row[x[0]] = min(row[x[0]], x[2]+d)
		}
	}, engineCfg)
	res.Stats.Add(st)
	res.PhaseRounds["broadcast"] += st.Rounds
	if err != nil {
		return nil, fmt.Errorf("hssp: step 4 broadcast: %w", err)
	}
	res.Dist = transpose(rows)
	return res, nil
}

// transpose returns the columns of the non-empty matrix m as rows.
func transpose(m [][]int64) [][]int64 {
	t := make([][]int64, len(m[0]))
	for v := range t {
		t[v] = make([]int64, len(m))
		for i := range m {
			t[v][i] = m[i][v]
		}
	}
	return t
}
