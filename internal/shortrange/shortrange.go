// Package shortrange implements the paper's Algorithm 2 (Sec. II-C): the
// simplified short-range algorithm that replaces two subroutines of Huang
// et al. [13]. Each node keeps a single best estimate (d*, l*) per source
// (smallest distance, ties by hop count) and re-broadcasts it in round
// ⌈d*·γ + l*⌉; for the single-source algorithm as written γ = √h, and for
// the k-source generalization γ = √(hk/Δ).
//
// Unlike Algorithm 1 there is no hop cap and no multi-entry list: the
// algorithm eventually computes exact unrestricted SSSP distances, and the paper's
// h-hop claim (Lemma II.15) is about *when* estimates are good — by round
// ⌈Δ·γ⌉ + h every node's estimate should already be at most its h-hop
// distance, with per-source congestion at most √h. Both claims are
// measured: Result.Snap records every estimate at the claimed round, and
// the engine reports max link congestion.
//
// The short-range-extension variant of [13] is the Seed option: nodes that
// already know a distance from the source start from it.
package shortrange

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/key"
)

// estimate is the wire payload: (source, d*, l*).
type estimate struct {
	src  int
	d, l int64
}

// Words reports the message size in words.
func (estimate) Words() int { return 3 }

// Opts configures a run.
type Opts struct {
	// Sources are the source node IDs. Required.
	Sources []int
	// H is the hop parameter h (it sets γ and the snapshot round; it is
	// not a hop cap). Required.
	H int
	// Delta is the distance bound used by the k-source schedule
	// γ = √(hk/Δ) and the snapshot round ⌈Δγ⌉+h. For the single-source
	// Algorithm 2 as written pass Delta=1 (γ = √h). If 0, 1 is used for
	// k=1 and H·maxWeight otherwise.
	Delta int64
	// Seed, if non-nil, gives initial distances per source index
	// (graph.Inf = unknown): the short-range-extension variant. Seeded
	// nodes start with hop count 0.
	Seed [][]int64
	// Delays, if non-nil, gives a per-source start delay added to every
	// schedule time: Ghaffari's random-delay scheduling framework [10],
	// which the paper's Sec. II-C combines with Algorithm 2 to run all
	// source executions concurrently. Shared (public) randomness is the
	// standard assumption for the framework. Length must match Sources.
	Delays []int64
	// Engine is the engine environment, handed to congest.Run whole.
	// MaxRounds == 0 means a slack multiple of the snapshot round.
	Engine congest.Config
}

// Result reports distances and measured behaviour.
type Result struct {
	// Dist[i][v], Hops[i][v]: final estimate from Sources[i] at v (exact
	// SSSP distances at quiescence — or seeded-extension distances).
	Dist [][]int64
	Hops [][]int64
	// Parent[i][v]: predecessor of the final estimate (-1 none).
	Parent [][]int
	// Snap[i][v]: the estimate at the end of round SnapRound — the paper's
	// claim is Snap[i][v] ≤ h-hop distance (Lemma II.15).
	Snap      [][]int64
	SnapRound int64
	// Stats: engine report; Stats.MaxLinkCongestion is the paper's
	// congestion measure (claimed ≤ √h per source, so ≤ k·√h total).
	Stats congest.Stats
	// LateSends counts sends after their scheduled round; Missed counts
	// estimates due in a round that had already chosen its one send (the
	// same-round collisions the paper's equality rule would drop).
	LateSends int
	Missed    int
}

type node struct {
	id   int
	opts *Opts

	gamma  key.Gamma
	snapAt int64

	srcIdx   map[int]int
	dist     []int64
	hops     []int64
	parent   []int
	needSend []bool
	snap     []int64
	inW      map[int]int64
	cur      int
	late     int
	missed   int
}

func (nd *node) Init(ctx *congest.Context) {
	k := len(nd.opts.Sources)
	nd.srcIdx = make(map[int]int, k)
	nd.dist = make([]int64, k)
	nd.hops = make([]int64, k)
	nd.parent = make([]int, k)
	nd.needSend = make([]bool, k)
	nd.snap = make([]int64, k)
	for i, s := range nd.opts.Sources {
		nd.srcIdx[s] = i
		nd.dist[i] = graph.Inf
		nd.hops[i] = -1
		nd.parent[i] = -1
		nd.snap[i] = graph.Inf
		if nd.opts.Seed != nil {
			// Extension variant: the seeds fully define the initial state
			// (the source label is only an identifier on the wire).
			if nd.opts.Seed[i][nd.id] < graph.Inf {
				nd.dist[i] = nd.opts.Seed[i][nd.id]
				nd.hops[i] = 0
				nd.parent[i] = nd.id
				nd.needSend[i] = true
			}
		} else if s == nd.id {
			nd.dist[i] = 0
			nd.hops[i] = 0
			nd.parent[i] = nd.id
			nd.needSend[i] = true
		}
	}
	nd.inW = make(map[int]int64)
	for _, e := range ctx.InEdges() {
		if w, ok := nd.inW[e.From]; !ok || e.W < w {
			nd.inW[e.From] = e.W
		}
	}
}

func (nd *node) sched(i int) int64 {
	s := nd.gamma.CeilKappa(nd.dist[i], nd.hops[i])
	if nd.opts.Delays != nil {
		s += nd.opts.Delays[i]
	}
	return s
}

func (nd *node) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	nd.cur = r
	for _, m := range inbox {
		est := m.Payload.(estimate)
		w, ok := nd.inW[m.From]
		if !ok {
			continue
		}
		i, ok := nd.srcIdx[est.src]
		if !ok {
			ctx.Failf("estimate for unknown source %d", est.src)
			return
		}
		d, l := est.d+w, est.l+1
		if d < nd.dist[i] || (d == nd.dist[i] && l < nd.hops[i]) {
			nd.dist[i], nd.hops[i], nd.parent[i] = d, l, m.From
			nd.needSend[i] = true
		}
	}
	// Send the lowest-(d, l, src) due estimate, at most one per round.
	send := -1
	var sendSched int64
	for _, i := range nd.order() {
		if !nd.needSend[i] {
			continue
		}
		s := nd.sched(i)
		if s == int64(r) {
			if send < 0 {
				send, sendSched = i, s
			} else {
				nd.missed++
			}
		} else if s < int64(r) && send < 0 {
			send, sendSched = i, s
		}
	}
	if send >= 0 {
		if sendSched < int64(r) {
			nd.late++
		}
		ctx.Broadcast(estimate{src: nd.opts.Sources[send], d: nd.dist[send], l: nd.hops[send]})
		nd.needSend[send] = false
	}
	if int64(r) == nd.snapAt {
		copy(nd.snap, nd.dist)
	}
}

// order returns source indices sorted by (d, l, src): overdue processing
// prefers the lexicographically smallest estimate.
func (nd *node) order() []int {
	idx := make([]int, len(nd.dist))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if nd.dist[ia] != nd.dist[ib] {
			return nd.dist[ia] < nd.dist[ib]
		}
		if nd.hops[ia] != nd.hops[ib] {
			return nd.hops[ia] < nd.hops[ib]
		}
		return nd.opts.Sources[ia] < nd.opts.Sources[ib]
	})
	return idx
}

// NextWake implements congest.Node: the earliest pending-entry schedule
// (clamped to the next round by the engine when overdue), and the snapshot
// round, which must be stepped exactly so the T_snap copy happens.
func (nd *node) NextWake() int {
	next := congest.WakeOnReceive
	if int64(nd.cur) < nd.snapAt {
		next = int(nd.snapAt)
	}
	for i, ns := range nd.needSend {
		if !ns {
			continue
		}
		if s := nd.sched(i); next == congest.WakeOnReceive || s < int64(next) {
			next = int(s)
		}
	}
	return next
}

func (nd *node) Quiescent() bool {
	// The snapshot keeps the node formally busy until the snapshot round
	// so the engine does not stop early on fast instances.
	if int64(nd.cur) < nd.snapAt {
		return false
	}
	for _, ns := range nd.needSend {
		if ns {
			return false
		}
	}
	return true
}

// Run executes the short-range algorithm.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("shortrange: no sources")
	}
	if opts.H <= 0 {
		return nil, fmt.Errorf("shortrange: H=%d must be positive", opts.H)
	}
	for _, s := range opts.Sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("shortrange: source %d out of range", s)
		}
	}
	if opts.Seed != nil && len(opts.Seed) != len(opts.Sources) {
		return nil, fmt.Errorf("shortrange: Seed rows %d != sources %d", len(opts.Seed), len(opts.Sources))
	}
	for i, row := range opts.Seed {
		if len(row) != g.N() {
			return nil, fmt.Errorf("shortrange: Seed row %d has %d entries, want %d", i, len(row), g.N())
		}
		for _, d := range row {
			if d < 0 {
				return nil, fmt.Errorf("shortrange: negative seed distance %d", d)
			}
		}
	}
	if opts.Delays != nil && len(opts.Delays) != len(opts.Sources) {
		return nil, fmt.Errorf("shortrange: Delays length %d != sources %d", len(opts.Delays), len(opts.Sources))
	}
	k := len(opts.Sources)
	if opts.Delta == 0 {
		if k == 1 {
			opts.Delta = 1 // γ = √h, Algorithm 2 as written
		} else {
			opts.Delta = int64(opts.H) * g.MaxWeight()
			if opts.Delta < 1 {
				opts.Delta = 1
			}
		}
	}
	gamma := key.New(k, opts.H, opts.Delta)
	// The claimed good-by round: ⌈Δγ⌉ + h (Lemma II.15's dilation), shifted
	// by the largest start delay under the random-delay framework.
	snapAt := gamma.CeilKappa(opts.Delta, int64(opts.H))
	for _, d := range opts.Delays {
		if snapAt < gamma.CeilKappa(opts.Delta, int64(opts.H))+d {
			snapAt = gamma.CeilKappa(opts.Delta, int64(opts.H)) + d
		}
	}
	cfg := opts.Engine
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = int(32*snapAt) + 64*g.N() + 1024
	}
	nodes := make([]*node, g.N())
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = &node{id: v, opts: &opts, gamma: gamma, snapAt: snapAt}
		return nodes[v]
	}, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dist:      make([][]int64, k),
		Hops:      make([][]int64, k),
		Parent:    make([][]int, k),
		Snap:      make([][]int64, k),
		SnapRound: snapAt,
		Stats:     stats,
	}
	for i := 0; i < k; i++ {
		res.Dist[i] = make([]int64, g.N())
		res.Hops[i] = make([]int64, g.N())
		res.Parent[i] = make([]int, g.N())
		res.Snap[i] = make([]int64, g.N())
		for v, nd := range nodes {
			res.Dist[i][v] = nd.dist[i]
			res.Hops[i][v] = nd.hops[i]
			res.Parent[i][v] = nd.parent[i]
			res.Snap[i][v] = nd.snap[i]
		}
	}
	for _, nd := range nodes {
		res.LateSends += nd.late
		res.Missed += nd.missed
	}
	return res, nil
}

// SingleSource runs Algorithm 2 exactly as written for one source with
// γ = √h.
func SingleSource(g *graph.Graph, source, h int) (*Result, error) {
	return Run(g, Opts{Sources: []int{source}, H: h, Delta: 1})
}

// Concurrent runs every source's Algorithm 2 execution (γ = √h each)
// simultaneously under Ghaffari's random-delay scheduling [10], as the end
// of the paper's Sec. II-C prescribes for h-hop APSP: each source's
// schedule is shifted by a uniform delay from [0, spread). Deterministic
// given the seed (public randomness).
func Concurrent(g *graph.Graph, sources []int, h int, spread int64, seed int64) (*Result, error) {
	if spread < 1 {
		spread = 1
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]int64, len(sources))
	for i := range delays {
		delays[i] = rng.Int63n(spread)
	}
	// γ = √h per execution: Delta = 1 mirrors SingleSource's slope for
	// every source, so the executions are honest Algorithm 2 instances.
	return Run(g, Opts{Sources: sources, H: h, Delta: 1, Delays: delays})
}

// Extension runs the short-range-extension: nodes in seed (node -> known
// distance) start from their known distances from the conceptual source.
func Extension(g *graph.Graph, seed map[int]int64, h int) (*Result, error) {
	s := make([]int64, g.N())
	for v := range s {
		s[v] = graph.Inf
	}
	first := -1
	for v, d := range seed {
		if v < 0 || v >= g.N() || d < 0 {
			return nil, fmt.Errorf("shortrange: bad seed (%d,%d)", v, d)
		}
		s[v] = d
		if first < 0 || v < first {
			first = v
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("shortrange: empty seed")
	}
	// The "source" is notional; pick the smallest seeded node as the label.
	return Run(g, Opts{Sources: []int{first}, H: h, Delta: 1, Seed: [][]int64{s}})
}
