// Package bellman implements distributed Bellman–Ford in the CONGEST model:
// the classical baseline the paper compares against ("an implementation
// using Bellman-Ford would give an O(n·h)-round bound", Sec. III), and the
// per-blocker full-SSSP routine used by Step 3 of Algorithm 3.
//
// For k sources and hop bound h the sources are round-robined over slots:
// in round r = (t−1)·k + j (block t ∈ 1..h, slot j ∈ 1..k) every node whose
// estimate for source j changed since its last broadcast sends it. A
// source-j estimate is sent only in a slot-j round and arrives in the
// round after it, so between one slot-j round and the next a node's
// source-j estimate changes only in the round right after the earlier one:
// each block is exactly one relaxation wave per source without freezing
// anything, and h blocks yield exactly the ≤h-hop distances in at most
// h·k + 1 rounds, zero-weight edges included (Bellman–Ford is indifferent
// to zero weights — it is slow, not wrong, which is why it is the safe
// baseline).
//
// Estimates carry (d, l), a distance and its hop count, and relax
// lexicographically, so block t holds the ≤t-hop distance with the fewest
// hops that realize it: the pair Step 1's truncation reads. A node resends
// only when d changes: a walk with fewer hops for the same d lay within an
// earlier block, so a later block cannot bring one.
package bellman

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// estimate is the wire payload: one source's distance estimate and its hops.
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
	// H is the hop bound (each source performs H relaxation waves).
	// Required.
	H int
	// Engine is the engine environment, handed to congest.Run whole
	// (MaxRounds == 0 = the engine's default).
	Engine congest.Config
}

// Result is the outcome of a run.
type Result struct {
	Dist   [][]int64 // Dist[i][v]: ≤H-hop distance from Sources[i] to v
	Hops   [][]int64 // fewest hops realizing Dist[i][v]; -1 if unreached
	Parent [][]int   // predecessor of v for Sources[i]; -1 if none
	Stats  congest.Stats
}

type node struct {
	id   int
	opts *Opts
	pool congest.Pool[estimate] // sender-owned: broadcasts allocate nothing in steady state

	dist     []int64 // merged estimates
	hops     []int64 // the hop count of each merged estimate (-1 = none)
	lastSent []int64 // last broadcast distance per source (Inf = never)
	parent   []int
	// srcOf is the shared source-ID → index table (see core for the
	// rationale); inFrom/inWt the sorted min-weight in-arcs, merge-joined
	// against the sender-sorted inbox instead of probing a map per message.
	srcOf  []int32
	inFrom []int32
	inWt   []int64
	cur    int // the round being or last executed
}

func (nd *node) Init(ctx *congest.Context) {
	if ctx.PayloadReuse() {
		nd.pool.Prewarm(4)
	}
	k := len(nd.opts.Sources)
	nd.dist = make([]int64, k)
	nd.hops = make([]int64, k)
	nd.lastSent = make([]int64, k)
	nd.parent = make([]int, k)
	for i, s := range nd.opts.Sources {
		nd.dist[i] = graph.Inf
		nd.hops[i] = -1
		nd.lastSent[i] = graph.Inf
		nd.parent[i] = -1
		if s == nd.id {
			nd.dist[i] = 0
			nd.hops[i] = 0
			nd.parent[i] = nd.id
		}
	}
	nd.inFrom, nd.inWt = graph.MinInArcs(ctx.InEdges())
}

// Round implements one slot of the round-robin schedule: merge, then send
// slot j's estimate if it changed. Block t sends exactly d^(t-1), so every
// block is one synchronous relaxation wave and after H blocks the
// estimates are exactly the ≤H-hop distances. The slot argument: a
// source-j estimate is sent only in a slot-j round and arrives in the
// next round, which is at or before the next block's start (slot j = k
// arrives in the start round itself, merged before its send). So from
// block t's start to its slot-j round nothing changes dist[j], and the
// value sent is the one block t started with. No estimate leaks from one
// slot into a later slot of the same block, which would let a path
// advance several hops per block and undershoot the h-hop semantics, and
// no block start needs to freeze a copy.
func (nd *node) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	nd.cur = r
	k := len(nd.opts.Sources)
	inPos := 0
	for _, m := range inbox {
		est := m.Payload.(*estimate)
		for inPos < len(nd.inFrom) && int(nd.inFrom[inPos]) < m.From {
			inPos++
		}
		if inPos == len(nd.inFrom) || int(nd.inFrom[inPos]) != m.From {
			continue
		}
		w := nd.inWt[inPos]
		if est.src < 0 || est.src >= len(nd.srcOf) || nd.srcOf[est.src] < 0 {
			ctx.Failf("estimate for unknown source %d", est.src)
			return
		}
		i := int(nd.srcOf[est.src])
		if d, l := est.d+w, est.l+1; d < nd.dist[i] || (d == nd.dist[i] && l < nd.hops[i]) {
			nd.dist[i], nd.hops[i] = d, l
			nd.parent[i] = m.From
		}
	}
	if r > nd.opts.H*k {
		return // all H relaxation waves dispatched; keep merging only
	}
	if j := (r - 1) % k; nd.unsent(j) {
		p := nd.pool.Get(ctx, r)
		p.src = nd.opts.Sources[j]
		p.d, p.l = nd.dist[j], nd.hops[j]
		ctx.Broadcast(p)
		nd.lastSent[j] = nd.dist[j]
	}
}

// unsent reports whether slot j has a finite distance its last broadcast
// did not carry (l changes only with d: see the package comment).
func (nd *node) unsent(j int) bool { return nd.dist[j] < graph.Inf && nd.dist[j] != nd.lastSent[j] }

func (nd *node) Quiescent() bool {
	if nd.cur >= nd.opts.H*len(nd.opts.Sources) {
		return true
	}
	for i := range nd.dist {
		if nd.unsent(i) {
			return false
		}
	}
	return true
}

// NextWake implements congest.Waker: the next slot round at which this node
// will broadcast. Absent further receives, slot j's next round sends
// today's dist[j], so the next send round is exactly computable. A node
// whose only unsent values can no longer fire (their slots in the final
// block have passed) wakes at round H·k, where it turns quiescent just as
// it does under dense stepping.
func (nd *node) NextWake() int {
	k := len(nd.opts.Sources)
	hk := nd.opts.H * k
	if nd.cur >= hk {
		return congest.WakeOnReceive
	}
	next := congest.WakeOnReceive
	pending := false
	for j := range nd.dist {
		if !nd.unsent(j) {
			continue
		}
		pending = true
		// Earliest round with slot j strictly after cur.
		r0 := j + 1
		if r0 <= nd.cur {
			r0 += ((nd.cur-r0)/k + 1) * k
		}
		if r0 <= hk && (next == congest.WakeOnReceive || r0 < next) {
			next = r0
		}
	}
	if next == congest.WakeOnReceive && pending {
		return hk // no slot left for the change: go formally quiescent there
	}
	return next
}

// NewNode returns the engine node factory for one run with the given
// options (Sources and H set): Run's, and that of stepwise engine drivers
// (the congest allocation guards and benchmarks). The factory shares
// opts, which must not change during the run.
func NewNode(opts *Opts) func(v int) congest.Node {
	srcOf := sourceIndex(opts.Sources)
	return func(v int) congest.Node {
		return &node{id: v, opts: opts, srcOf: srcOf}
	}
}

// sourceIndex builds the dense source-ID → source-index table shared by
// every node of a run (-1 marks non-sources).
func sourceIndex(sources []int) []int32 {
	maxS := 0
	for _, s := range sources {
		if s > maxS {
			maxS = s
		}
	}
	srcOf := make([]int32, maxS+1)
	for i := range srcOf {
		srcOf[i] = -1
	}
	for i, s := range sources {
		srcOf[s] = int32(i)
	}
	return srcOf
}

// Run executes distributed Bellman–Ford per Opts.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("bellman: no sources")
	}
	if opts.H <= 0 {
		return nil, fmt.Errorf("bellman: hop bound H=%d must be positive", opts.H)
	}
	seen := make([]bool, g.N())
	for _, s := range opts.Sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("bellman: source %d out of range", s)
		}
		if seen[s] {
			// sourceIndex maps a source ID to one row, so a repeated
			// source would leave its other rows unfilled.
			return nil, fmt.Errorf("bellman: duplicate source %d", s)
		}
		seen[s] = true
	}
	nodes := make([]*node, g.N())
	mk := NewNode(&opts)
	stats, err := congest.Run(g, func(v int) congest.Node {
		nd := mk(v)
		nodes[v] = nd.(*node)
		return nd
	}, opts.Engine)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dist:   make([][]int64, len(opts.Sources)),
		Hops:   make([][]int64, len(opts.Sources)),
		Parent: make([][]int, len(opts.Sources)),
		Stats:  stats,
	}
	for i := range opts.Sources {
		res.Dist[i] = make([]int64, g.N())
		res.Hops[i] = make([]int64, g.N())
		res.Parent[i] = make([]int, g.N())
		for v, nd := range nodes {
			res.Dist[i][v] = nd.dist[i]
			res.Hops[i][v] = nd.hops[i]
			res.Parent[i][v] = nd.parent[i]
		}
	}
	return res, nil
}

// FullSSSP computes unrestricted single-source shortest paths from src
// (hop bound n−1, sufficient for any simple path). cfg is the engine
// environment; the zero value is fine.
func FullSSSP(g *graph.Graph, src int, cfg congest.Config) (*Result, error) {
	h := g.N() - 1
	if h < 1 {
		h = 1
	}
	return Run(g, Opts{Sources: []int{src}, H: h, Engine: cfg})
}

// FullReverseSSSP computes distances TO dst from every node by running
// forward SSSP on the reversed graph (the communication graph is identical,
// so the round cost is the honest cost).
func FullReverseSSSP(g *graph.Graph, dst int, cfg congest.Config) (*Result, error) {
	return FullSSSP(g.Reverse(), dst, cfg)
}
