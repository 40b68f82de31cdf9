// Package core implements the paper's central contribution: the pipelined
// (h,k)-SSP algorithm (Algorithm 1, Sec. II) for graphs with non-negative
// integer edge weights, zero-weight edges included.
//
// Every node v maintains list_v of path entries Z = (κ, d, l, x) ordered by
// (κ, d, x), where κ = d·γ + l and γ = √(kh/Δ). Unusually — and this is the
// algorithm's innovation — list_v may hold several entries per source,
// including entries known not to be shortest. An entry at position pos is
// sent in round ⌈κ⌉ + pos. The paper proves (Theorem I.1) that all h-hop
// shortest path distances from k sources arrive within
// 2√(khΔ) + k + h rounds.
//
// Which entries a node keeps: the paper governs that with the Z.ν counting
// rule (Step 13) and the INSERT eviction rule, and the literal readings of
// both lose h-hop distances on small instances (counterexample_test.go).
// Run therefore keeps, per source, the Pareto frontier of (distance, hops)
// pairs (List.Offer): an incoming entry is dropped iff some retained entry
// has both smaller-or-equal distance and smaller-or-equal hop count, and an
// inserted entry removes the entries it dominates. Dominated entries are
// useless for every suffix and hop budget, so this is correct by
// construction, with the paper's keys and send schedule unchanged. Its
// per-source list size (≤ min(h,Δ)+1) can exceed the paper's Invariant 2
// bound h/γ+1 — that gap is precisely where the paper's machinery loses
// needed entries. The literal rules live in literal.go behind RunLiteral,
// for the ablation experiments and the counterexample tests only.
//
// The send schedule: the paper states the rule as equality,
// "send Z when ⌈Z.κ + pos(Z)⌉ = r". Because pos(Z) can grow by more than
// one between consecutive rounds (several inserts below Z while an eviction
// lands above it), a literal implementation can skip past the equality
// moment. This implementation therefore uses the lenient rule — send the
// earliest-scheduled unsent entry whose schedule time has arrived, one per
// round — and counts both late sends and same-round schedule collisions, so
// the experiments quantify how often the equality rule would have misfired
// (experiment E-INV). It is the only send rule here; the strict one
// survives in internal/posweight, for the A-LIST ablation.
package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/key"
)

// Opts configures an Algorithm 1 run.
type Opts struct {
	// Sources is the source set S (the k of (h,k)-SSP). Required.
	Sources []int
	// H is the hop bound h. Required.
	H int
	// Delta is the promised bound on h-hop shortest-path distances. If 0,
	// the safe upper bound H·maxWeight is used (correct, but a larger Δ
	// weakens γ and costs rounds — the paper assumes Δ is known).
	Delta int64
	// Audit enables per-round Invariant 2 verification and, under
	// RunLiteral, per-insert Invariant 1 verification (costs time;
	// violations are counted in the Result). Run's Pareto inserts are not
	// audited for Invariant 1 and never were: Inv1Violations reads 0 there
	// by construction.
	Audit bool
	// Prealloc, when positive, pre-sizes each node's entry storage for that
	// many concurrent entries at Init: the freelist is stocked with a
	// contiguous block and the list, per-source sets, send heap and scratch
	// slices get matching capacity. Rounds then allocate nothing until a
	// node's live entry count first exceeds the hint (growth falls back to
	// ordinary allocation — correct, just no longer allocation-free). The
	// steady-state allocation guards rely on this; the default 0 keeps
	// memory proportional to actual demand.
	Prealloc int
	// Engine is the engine environment, handed to congest.Run whole.
	// MaxRounds == 0 means a slack multiple of the paper bound.
	Engine congest.Config
	// Trace, if set, receives a line per list event (insert, drop, evict,
	// send); a debugging aid. Forces Engine.Workers=1 so lines are ordered.
	Trace func(format string, args ...interface{})
	// Obs is a second spelling of Engine.Observer; Run tees the two. It
	// exists for benchmark/sim.go, which names it in a keyed literal, and
	// goes when that file hands its observer in Engine instead.
	Obs congest.Observer
	// SnapshotRounds, if non-empty, records each node's best distances at
	// the end of the given rounds (ascending), exposing the algorithm's
	// anytime behaviour (experiment E-CONV). Rounds after quiescence
	// report the final state.
	SnapshotRounds []int
}

// Result reports distances and the measured behaviour of the run.
type Result struct {
	// Sources echoes the source set; row i below belongs to Sources[i].
	Sources []int
	// Dist[i][v], Hops[i][v]: the h-hop shortest distance from Sources[i]
	// to v and the minimal hop count attaining it (graph.Inf / -1 when v is
	// not reachable within h hops).
	Dist [][]int64
	Hops [][]int64
	// Parent[i][v]: the predecessor on the recorded path (last edge), -1 if
	// none, the source itself at the source.
	Parent [][]int
	// Stats is the engine cost report.
	Stats congest.Stats
	// Bound is the paper's round bound 2√(khΔ) + k + h for this run's
	// parameters (Lemma II.14), for direct comparison with Stats.Rounds.
	Bound int64
	// Delta is the Δ the run actually used.
	Delta int64

	// Schedule diagnostics (see package comment).
	LateSends  int // sends after their scheduled round
	Collisions int // rounds at a node where ≥2 entries were due simultaneously

	// Invariant audit (populated when Opts.Audit).
	Inv1Violations int // RunLiteral inserts with r ≥ ⌈κ⌉ + pos (Lemma II.12)
	Inv2Violations int // per-source list count exceeding h/γ + 1 (Lemma II.11)

	// Snapshots[r][i][v]: best distance for Sources[i] at node v at the end
	// of round r, for each requested SnapshotRounds entry (final state for
	// rounds past quiescence).
	Snapshots map[int][][]int64

	// List behaviour.
	MaxListLen int // max |list_v| observed (paper: ≤ γΔ + k)
	// MaxPerSource is the most entries one node held for one source
	// (paper: ≤ h/γ + 1). Under Run the Pareto frontier at rest holds at
	// most min(h,Δ)+1; this is sampled as a newcomer joins, before the
	// entries it dominates leave, so it reads up to min(h,Δ)+2. The sample
	// point is part of the checkpoint format (state.go).
	MaxPerSource int
	Inserts      int64 // total list insertions
	Evictions    int64 // entries removed: dominated (Run), INSERT eviction rule (RunLiteral)
	NuDrops      int64 // entries refused: dominated (Run), Step 13 counting rule (RunLiteral)
	DupDrops     int64 // exact duplicate entries dropped (RunLiteral)
}

// wire is the message payload M = (Z, Z.ν) of Step 2. The paper's M also
// carries Z.flag-d*; no receiver reads it (docs/FINDINGS.md), so it is
// not sent.
type wire struct {
	d, l int64
	src  int   // source node ID (not index: IDs are what travel on the wire)
	nu   int32 // Z.ν: entries for x at or below Z on the sender's list
}

// Words reports the CONGEST size: d, l, src and ν.
func (wire) Words() int { return 4 }

type node struct {
	id   int
	opts *Opts

	gamma key.Gamma
	// srcOf maps a source node ID to its index in Sources (-1 absent);
	// one slice shared by every node of the run (see NewNode). The dense
	// lookup replaces a per-node map: the receive loop resolves a source
	// per message, and hashing dominated the engine's hot-path profile.
	srcOf []int32
	// inFrom/inWt are the node's in-neighbors ascending with the minimum
	// arc weight per neighbor. The inbox is sorted by sender (an engine
	// invariant), so the receive loop resolves weights with a linear
	// merge-join instead of a map probe per message.
	inFrom []int32
	inWt   []int64

	// pl is list_v with its send schedule, driven the way every List
	// holder drives it: Offer per extended message, then one NextSend.
	pl List

	// audit counters, merged into res at collection time
	inv1, inv2 int

	snaps map[int][]int64 // snapshot round -> copy of best distances

	// Outgoing payloads are pool-recycled (see the AllocsPerRun guards in
	// internal/congest).
	pool congest.Pool[wire]
}

func (nd *node) Init(ctx *congest.Context) {
	nd.pl.Init(nd.id, nd.gamma, nd.opts.Sources, nd.opts.Prealloc)
	nd.pl.trace = nd.opts.Trace
	if ctx.PayloadReuse() {
		nd.pool.Prewarm(4)
	}
	nd.inFrom, nd.inWt = graph.MinInArcs(ctx.InEdges())
	for i, s := range nd.opts.Sources {
		if s == nd.id {
			nd.pl.Seed(i, 0)
		}
	}
}

// extend resolves one received message against this node (Steps 3–8): the
// sender's entry extended over the arc it crossed, as (source index, d, l).
// ok is false for a message that carries nothing to offer — no arc from
// the sender, beyond the hop budget, or about this node's own source.
// inPos is the merge-join cursor over inFrom; it only ever advances.
func (nd *node) extend(ctx *congest.Context, m congest.Message, inPos *int) (i int, d, l int64, ok bool) {
	p := *inPos
	for p < len(nd.inFrom) && int(nd.inFrom[p]) < m.From {
		p++
	}
	*inPos = p
	if p == len(nd.inFrom) || int(nd.inFrom[p]) != m.From {
		return 0, 0, 0, false // link without an arc into this node
	}
	msg := m.Payload.(*wire)
	if msg.src < 0 || msg.src >= len(nd.srcOf) || nd.srcOf[msg.src] < 0 {
		ctx.Failf("entry for unknown source %d", msg.src)
		return 0, 0, 0, false
	}
	i = int(nd.srcOf[msg.src])
	d, l = msg.d+nd.inWt[p], msg.l+1
	if l > int64(nd.opts.H) {
		return 0, 0, 0, false // beyond the hop budget: cannot be an h-hop path
	}
	if nd.id == nd.opts.Sources[i] {
		return 0, 0, 0, false // nothing improves the source's own (0,0) record
	}
	return i, d, l, true
}

func (nd *node) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	inPos := 0
	for _, m := range inbox {
		i, d, l, ok := nd.extend(ctx, m, &inPos)
		if !ok || d > nd.opts.Delta {
			// Under the Δ promise, every prefix of a useful path weighs at
			// most Δ (weights are non-negative), so heavier entries are
			// dead weight; pruning them keeps the frontier ≤ min(h,Δ)+1.
			continue
		}
		nd.pl.Offer(i, d, l, m.From, r)
	}
	nd.finish(ctx, r)
}

// finish is the round after the receive loop: the Invariant 2 audit, the
// one send (Steps 1–2: at most one entry per round, per the schedule) and
// the E-CONV snapshot.
func (nd *node) finish(ctx *congest.Context, r int) {
	if nd.opts.Audit {
		nd.auditInv2()
	}
	if s, ok := nd.pl.NextSend(r); ok {
		w := nd.pool.Get(ctx, r)
		w.d, w.l, w.src, w.nu = s.D, s.L, nd.opts.Sources[s.SrcIdx], s.Nu
		ctx.Broadcast(w)
	}
	for _, sr := range nd.opts.SnapshotRounds {
		if sr == r {
			if nd.snaps == nil {
				nd.snaps = make(map[int][]int64)
			}
			row := make([]int64, len(nd.opts.Sources))
			for i := range row {
				row[i] = nd.pl.BestDist(i)
			}
			nd.snaps[sr] = row
		}
	}
}

// auditInv2 checks Lemma II.11: per-source entry count ≤ h/γ + 1, i.e.
// (count−1)² · k ≤ h · Δ, exactly in integers.
func (nd *node) auditInv2() {
	h := int64(nd.opts.H)
	k := int64(len(nd.opts.Sources))
	for i := range nd.opts.Sources {
		c := int64(nd.pl.PerSource(i)) - 1
		if c <= 0 {
			continue
		}
		if c*c*k > h*nd.opts.Delta {
			nd.inv2++
		}
	}
}

func (nd *node) Quiescent() bool { return nd.pl.Quiescent() }

// NextWake implements congest.Waker. The node acts spontaneously only when
// the list's earliest heap item comes due or a snapshot round arrives.
// Audit mode re-checks Invariant 2 every round, so it keeps dense stepping.
func (nd *node) NextWake() int {
	if nd.opts.Audit {
		return nd.pl.Round() + 1
	}
	next := nd.pl.NextWake()
	for _, sr := range nd.opts.SnapshotRounds { // ascending
		if sr > nd.pl.Round() {
			if next == congest.WakeOnReceive || sr < next {
				next = sr
			}
			break
		}
	}
	return next
}

// NewNode returns the engine node factory for one run with the given
// options. Callers must set Sources, H and Delta (Run normalizes them
// first; stepwise engine drivers — the congest allocation guards and
// benchmarks — call this directly with explicit values). The factory
// shares opts, which must not change during the run.
func NewNode(opts *Opts) func(v int) congest.Node {
	gamma := key.New(len(opts.Sources), opts.H, opts.Delta)
	srcOf := sourceIndex(opts.Sources)
	return func(v int) congest.Node {
		return &node{id: v, opts: opts, gamma: gamma, srcOf: srcOf}
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

// Run executes Algorithm 1 on g.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	return run(g, opts, func(nd *node) congest.Node { return nd })
}

// run validates opts, steps one engine run over the nodes wrap returns and
// collects the Result. wrap is where RunLiteral substitutes its receive
// rules; the list, schedule, counters and checkpoint state stay the node's.
func run(g *graph.Graph, opts Opts, wrap func(*node) congest.Node) (*Result, error) {
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if opts.H <= 0 {
		return nil, fmt.Errorf("core: hop bound H=%d must be positive", opts.H)
	}
	seen := make(map[int]bool)
	for _, s := range opts.Sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("core: source %d out of range", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: duplicate source %d", s)
		}
		seen[s] = true
	}
	if opts.Delta == 0 {
		opts.Delta = int64(opts.H) * g.MaxWeight()
		if opts.Delta < 1 {
			opts.Delta = 1
		}
	}
	k := len(opts.Sources)
	bound := key.Bound(k, opts.H, opts.Delta)
	cfg := opts.Engine
	if opts.Obs != nil { // the benchmark's Obs field (benchmark/sim.go)
		cfg.Observer = congest.Tee(cfg.Observer, opts.Obs)
	}
	if cfg.MaxRounds == 0 {
		mr := 16*bound + 1024
		if mr > int64(1<<30) {
			mr = 1 << 30
		}
		cfg.MaxRounds = int(mr)
	}
	if opts.Trace != nil {
		cfg.Workers = 1
	}

	res := &Result{Sources: append([]int(nil), opts.Sources...), Bound: bound, Delta: opts.Delta}
	nodes := make([]*node, g.N())
	mk := NewNode(&opts)
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = mk(v).(*node)
		return wrap(nodes[v])
	}, cfg)
	res.Stats = stats
	if err != nil {
		return nil, err
	}

	res.Dist = make([][]int64, k)
	res.Hops = make([][]int64, k)
	res.Parent = make([][]int, k)
	for i := 0; i < k; i++ {
		res.Dist[i] = make([]int64, g.N())
		res.Hops[i] = make([]int64, g.N())
		res.Parent[i] = make([]int, g.N())
		for v, nd := range nodes {
			res.Dist[i][v], res.Hops[i][v], res.Parent[i][v] = nd.pl.Best(i)
		}
	}
	if len(opts.SnapshotRounds) > 0 {
		res.Snapshots = make(map[int][][]int64, len(opts.SnapshotRounds))
		for _, sr := range opts.SnapshotRounds {
			snap := make([][]int64, k)
			for i := 0; i < k; i++ {
				snap[i] = make([]int64, g.N())
				for v, nd := range nodes {
					if row, ok := nd.snaps[sr]; ok {
						snap[i][v] = row[i]
					} else {
						snap[i][v] = nd.pl.BestDist(i) // run ended before sr
					}
				}
			}
			res.Snapshots[sr] = snap
		}
	}
	for _, nd := range nodes {
		c := &nd.pl.Counters
		res.LateSends += c.Late
		res.Collisions += c.Collisions
		res.Inv1Violations += nd.inv1
		res.Inv2Violations += nd.inv2
		res.MaxListLen = max(res.MaxListLen, c.MaxList)
		res.MaxPerSource = max(res.MaxPerSource, c.MaxPer)
		res.Inserts += c.Inserts
		res.Evictions += c.Evicts
		res.NuDrops += c.NuDrops
		res.DupDrops += c.DupDrops
	}
	return res, nil
}

// APSP runs Algorithm 1 with every node a source and hop bound n−1
// (sufficient for any shortest path), realizing Theorem I.1(ii):
// APSP in 2n√Δ + 2n rounds for shortest-path distances at most Δ.
func APSP(g *graph.Graph, delta int64) (*Result, error) {
	sources := make([]int, g.N())
	for v := range sources {
		sources[v] = v
	}
	return KSSP(g, sources, delta)
}

// KSSP runs Algorithm 1 for k given sources with hop bound n−1, realizing
// Theorem I.1(iii).
func KSSP(g *graph.Graph, sources []int, delta int64) (*Result, error) {
	h := g.N() - 1
	if h < 1 {
		h = 1
	}
	return Run(g, Opts{Sources: sources, H: h, Delta: delta})
}
