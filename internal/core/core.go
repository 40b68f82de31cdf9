// Package core implements the paper's central contribution: the pipelined
// (h,k)-SSP algorithm (Algorithm 1, Sec. II) for graphs with non-negative
// integer edge weights, zero-weight edges included.
//
// Every node v maintains list_v of path entries Z = (κ, d, l, x) ordered by
// (κ, d, x), where κ = d·γ + l and γ = √(kh/Δ). Unusually — and this is the
// algorithm's innovation — list_v may hold several entries per source,
// including entries known not to be shortest, governed by the Z.ν counting
// rule (Step 13) and the INSERT eviction rule. An entry at position pos is
// sent in round ⌈κ⌉ + pos. The paper proves (Theorem I.1) that all h-hop
// shortest path distances from k sources arrive within
// 2√(khΔ) + k + h rounds.
//
// The send schedule: the paper states the rule as equality,
// "send Z when ⌈Z.κ + pos(Z)⌉ = r". Because pos(Z) can grow by more than
// one between consecutive rounds (several inserts below Z while an eviction
// lands above it), a literal implementation can skip past the equality
// moment. This implementation therefore defaults to the lenient rule —
// send the earliest-scheduled unsent entry whose schedule time has arrived,
// one per round — and counts both late sends and same-round schedule
// collisions, so the experiments quantify how often the strict rule would
// have misfired (experiment E-INV). Opts.Strict selects the literal rule
// for the ablation.
package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/key"
)

// EvictPolicy selects when the INSERT procedure's eviction rule (remove the
// closest non-SP entry above the inserted one; paper Observation II.3) is
// applied. The paper's text applies it to every insertion, but doing so is
// demonstrably incorrect on small instances this repository found: an
// insertion can evict a due-but-unsent non-SP entry that is the unique
// carrier of a downstream node's h-hop shortest path (see
// TestPaperModeCounterexampleEviction). The default therefore only evicts
// entries whose information has already been broadcast; the literal policy
// is kept for the ablation experiment A-LIT.
type EvictPolicy int

const (
	// EvictOnlySent applies the rule on every insertion but only evicts
	// entries that have already been sent (information already shared with
	// all neighbors, so discarding the local copy cannot lose paths).
	// Default.
	EvictOnlySent EvictPolicy = iota
	// EvictAllInserts applies the eviction rule on every insertion — the
	// literal reading of the paper's INSERT procedure. Incorrect; kept for
	// the ablation.
	EvictAllInserts
	// EvictNonSPInserts applies the eviction rule only on Step 13 (non-SP)
	// insertions. Still incorrect (a non-SP insert can evict an unsent
	// carrier); kept for the ablation.
	EvictNonSPInserts
)

// Mode selects the list-maintenance discipline.
type Mode int

const (
	// ModePareto (default) keeps, per source, the Pareto frontier of
	// (distance, hops) pairs: an incoming entry is dropped iff some retained
	// entry has both smaller-or-equal distance and smaller-or-equal hop
	// count, and an inserted entry removes the entries it dominates.
	// Dominated entries are useless for every suffix and hop budget, so
	// this discipline is correct by construction for exact h-hop shortest
	// paths; it retains the paper's keys and send schedule unchanged. Its
	// per-source list size (≤ min(h,Δ)+1) can exceed the paper's
	// Invariant 2 bound h/γ+1 — that gap is precisely where the paper's
	// machinery loses needed entries (see ModePaper).
	ModePareto Mode = iota
	// ModePaper reproduces the paper's Step 13 ν-counting insertion gate
	// and the INSERT eviction rule, with the EvictPolicy and gate-key knobs
	// below. The literal readings are demonstrably incorrect on small
	// instances (see counterexample_test.go); this mode exists to
	// reproduce and measure the paper's accounting, including exactly that
	// failure.
	ModePaper
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
	// Seed, if non-nil, gives initial known distances per source index
	// (graph.Inf = unknown): the extension variant of Sec. II-C lifted to
	// the multi-entry algorithm. Seeded nodes start with an entry
	// (Seed[i][v], 0) — an already-computed distance with zero additional
	// hops — and the run extends those by up to H further hops. A source's
	// own entry remains (0,0) unless a smaller seed is given. Delta must
	// then bound seed+extension distances; the auto bound accounts for the
	// largest finite seed.
	Seed [][]int64
	// Mode selects the list discipline (see Mode).
	Mode Mode
	// Strict selects the paper's literal equality-only send rule.
	Strict bool
	// Evict selects the INSERT eviction policy in ModePaper (see
	// EvictPolicy).
	Evict EvictPolicy
	// GateByUpdatedKey switches the Step 13 insertion gate to count the
	// receiver's entries below the *updated* key Z.κ (one literal reading
	// of the paper's text). The default counts entries below the *sender's*
	// key Z⁻.κ; gating on the updated key demonstrably drops essential
	// entries (see TestPaperModeCounterexampleGateKey). Only meaningful in
	// ModePaper.
	GateByUpdatedKey bool
	// Audit enables per-insert Invariant 1 and per-round Invariant 2
	// verification (costs time; violations are counted in the Result).
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
	// goes with the benchmark-archetype follow-up of ROADMAP 7(c).
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
	LateSends  int // sends after their scheduled round (lenient mode)
	Collisions int // rounds at a node where ≥2 entries were due simultaneously
	Missed     int // strict mode: due entries that could not be sent in their round

	// Invariant audit (populated when Opts.Audit).
	Inv1Violations int // inserts with r ≥ ⌈κ⌉ + pos (Lemma II.12)
	Inv2Violations int // per-source list count exceeding h/γ + 1 (Lemma II.11)

	// Snapshots[r][i][v]: best distance for Sources[i] at node v at the end
	// of round r, for each requested SnapshotRounds entry (final state for
	// rounds past quiescence).
	Snapshots map[int][][]int64

	// List behaviour.
	MaxListLen int // max |list_v| observed (paper: ≤ γΔ + k)
	// MaxPerSource is the most entries one node held for one source
	// (paper: ≤ h/γ + 1). Under ModePareto the frontier at rest holds at
	// most min(h,Δ)+1; this is sampled as a newcomer joins, before the
	// entries it dominates leave, so it reads up to min(h,Δ)+2. The sample
	// point is part of the checkpoint format (state.go).
	MaxPerSource int
	Inserts      int64 // total list insertions
	Evictions    int64 // entries removed by the INSERT eviction rule
	NuDrops      int64 // non-SP entries rejected by the Step 13 counting rule
	DupDrops     int64 // exact duplicate entries dropped
}

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

	// pl is list_v with its send schedule. ModePareto drives it through
	// Offer; ModePaper's ν-gate and eviction rule (insert below) operate on
	// the same storage.
	pl List

	// local counters, merged into res at collection time
	inv1, inv2 int
	dupDrops   int64

	snaps map[int][]int64 // snapshot round -> copy of best distances

	// Outgoing payloads are pool-recycled (see the AllocsPerRun guards in
	// internal/congest).
	pool congest.Pool[wire]
	gate entry // scratch for the Step 13 gate key (never inserted)
}

func (nd *node) Init(ctx *congest.Context) {
	nd.pl.Init(nd.id, nd.gamma, nd.opts.Sources, nd.opts.Prealloc)
	nd.pl.strict, nd.pl.trace = nd.opts.Strict, nd.opts.Trace
	if ctx.PayloadReuse() {
		nd.pool.Prewarm(4)
	}
	nd.inFrom, nd.inWt = graph.MinInArcs(ctx.InEdges())
	for i := range nd.opts.Sources {
		d := int64(-1)
		if nd.opts.Sources[i] == nd.id {
			d = 0
		}
		if nd.opts.Seed != nil {
			if s := nd.opts.Seed[i][nd.id]; s < graph.Inf && (d < 0 || s < d) {
				d = s
			}
		}
		if d >= 0 {
			nd.pl.Seed(i, d)
		}
	}
}

// insert performs the paper's INSERT procedure: place z in sorted order,
// then (policy permitting) evict the closest non-SP entry for the same
// source above z.
func (nd *node) insert(z *entry, r int) {
	pl := &nd.pl
	pl.insertAt(z, pl.searchPos(z))
	if nd.opts.Audit {
		// Invariant 1 (Lemma II.12): an entry added in round r satisfies
		// r < ⌈κ⌉ + pos. Messages processed in engine round r were sent in
		// round r−1, which is the paper's "added in round r−1".
		if int64(r-1) >= z.ceilK+int64(z.idx)+1 {
			nd.inv1++
		}
	}
	if nd.opts.Evict != EvictNonSPInserts || !z.flagSP {
		// Eviction: closest non-SP entry for x strictly above z (policy
		// permitting; EvictOnlySent skips entries not yet broadcast).
		var victim *entry
		for _, e := range pl.perSrc[z.srcIdx] {
			if e == z || e.flagSP || e.idx <= z.idx {
				continue
			}
			if nd.opts.Evict == EvictOnlySent && e.needSend {
				continue
			}
			if victim == nil || e.idx < victim.idx {
				victim = e
			}
		}
		if victim != nil {
			if nd.opts.Trace != nil {
				nd.opts.Trace("v%d EVICT (d=%d l=%d src=%d) sent=%v", nd.id, victim.d, victim.l, nd.opts.Sources[victim.srcIdx], !victim.needSend)
			}
			pl.removeEntry(victim)
		}
	}
	pl.schedule(z)
}

func (nd *node) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	// Receive (Steps 3–13). The inbox is sorted ascending by sender (an
	// engine invariant), so the in-arc weight lookup is a merge-join over
	// the equally-sorted inFrom: the cursor only ever advances.
	pl := &nd.pl
	inPos := 0
	for _, m := range inbox {
		msg := m.Payload.(*wire)
		for inPos < len(nd.inFrom) && int(nd.inFrom[inPos]) < m.From {
			inPos++
		}
		if inPos == len(nd.inFrom) || int(nd.inFrom[inPos]) != m.From {
			continue // link without an arc into this node
		}
		w := nd.inWt[inPos]
		if msg.src < 0 || msg.src >= len(nd.srcOf) || nd.srcOf[msg.src] < 0 {
			ctx.Failf("entry for unknown source %d", msg.src)
			return
		}
		i := int(nd.srcOf[msg.src])
		d := msg.d + w
		l := msg.l + 1
		if l > int64(nd.opts.H) {
			continue // beyond the hop budget: cannot be an h-hop path
		}
		if nd.opts.Mode == ModePareto && d > nd.opts.Delta {
			// Under the Δ promise, every prefix of a useful path weighs at
			// most Δ (weights are non-negative), so heavier entries are
			// dead weight; pruning them keeps the frontier ≤ min(h,Δ)+1.
			continue
		}
		if nd.id == nd.opts.Sources[i] {
			continue // nothing improves the source's own (0,0) record
		}
		if nd.opts.Mode == ModePareto {
			pl.Offer(i, d, l, m.From, r)
			continue
		}

		z := pl.newEntry()
		z.d, z.l, z.srcIdx, z.parent = d, l, i, m.From
		z.ceilK = nd.gamma.CeilKappa(d, l)
		b := &pl.bests[i]
		better := d < b.d ||
			(d == b.d && l < b.l) ||
			(d == b.d && l == b.l && m.From < b.parent)
		if better {
			// Step 9–11: z is the new shortest-path entry.
			if b.e != nil {
				b.e.flagSP = false
			}
			z.flagSP = true
			z.needSend = true
			*b = best{d: d, l: l, parent: m.From, e: z}
			nd.insert(z, r)
			if nd.opts.Trace != nil {
				nd.opts.Trace("r%d v%d INSERT SP (d=%d l=%d src=%d) from %d", r, nd.id, d, l, msg.src, m.From)
			}
			continue
		}
		// Step 13: non-SP entry; insert only if fewer than ν⁻ entries for
		// x lie below the gate key. Exact duplicates carry no information.
		dup := false
		for _, e := range pl.perSrc[i] {
			if e.equalKey(z) {
				dup = true
				break
			}
		}
		if dup {
			nd.dupDrops++
			pl.recycle(z)
			continue
		}
		gate := z
		if !nd.opts.GateByUpdatedKey {
			// Count entries below the sender's key κ(Z⁻) instead of the
			// updated κ(Z); see Opts.GateByUpdatedKey.
			nd.gate = entry{d: msg.d, l: msg.l, srcIdx: i}
			gate = &nd.gate
		}
		if pl.countBefore(gate) < int(msg.nu) {
			z.needSend = true
			nd.insert(z, r)
			if nd.opts.Trace != nil {
				nd.opts.Trace("r%d v%d INSERT nonSP (d=%d l=%d src=%d) from %d nu=%d", r, nd.id, d, l, msg.src, m.From, msg.nu)
			}
		} else {
			pl.nuDrops++
			if nd.opts.Trace != nil {
				nd.opts.Trace("r%d v%d NUDROP (d=%d l=%d src=%d) from %d nu=%d below=%d", r, nd.id, d, l, msg.src, m.From, msg.nu, pl.countBefore(gate))
			}
			pl.recycle(z)
		}
	}

	if nd.opts.Audit {
		nd.auditInv2()
	}

	// Send (Steps 1–2): at most one entry per round, per the schedule.
	if s, ok := pl.NextSend(r); ok {
		w := nd.pool.Get(ctx, r)
		w.d, w.l, w.src, w.sp, w.nu = s.D, s.L, nd.opts.Sources[s.SrcIdx], s.SP, s.Nu
		ctx.Broadcast(w)
	}

	for _, sr := range nd.opts.SnapshotRounds {
		if sr == r {
			if nd.snaps == nil {
				nd.snaps = make(map[int][]int64)
			}
			row := make([]int64, len(nd.pl.bests))
			for i, b := range nd.pl.bests {
				row[i] = b.d
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
	for _, ps := range nd.pl.perSrc {
		c := int64(len(ps)) - 1
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
		return nd.pl.cur + 1
	}
	next := nd.pl.NextWake()
	for _, sr := range nd.opts.SnapshotRounds { // ascending
		if sr > nd.pl.cur {
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
	if opts.Seed != nil && len(opts.Seed) != len(opts.Sources) {
		return nil, fmt.Errorf("core: Seed rows %d != sources %d", len(opts.Seed), len(opts.Sources))
	}
	var maxSeed int64
	if opts.Seed != nil {
		for i := range opts.Seed {
			if len(opts.Seed[i]) != g.N() {
				return nil, fmt.Errorf("core: Seed row %d has %d entries, want %d", i, len(opts.Seed[i]), g.N())
			}
			for _, s := range opts.Seed[i] {
				if s < 0 {
					return nil, fmt.Errorf("core: negative seed distance %d", s)
				}
				if s < graph.Inf && s > maxSeed {
					maxSeed = s
				}
			}
		}
	}
	if opts.Delta == 0 {
		opts.Delta = int64(opts.H)*g.MaxWeight() + maxSeed
		if opts.Delta < 1 {
			opts.Delta = 1
		}
	}
	k := len(opts.Sources)
	bound := key.Bound(k, opts.H, opts.Delta)
	cfg := opts.Engine
	if opts.Obs != nil { // benchmark/sim.go still says Obs (ROADMAP 7c)
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
		return nodes[v]
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
			b := nd.pl.bests[i]
			res.Dist[i][v] = b.d
			res.Hops[i][v] = b.l
			res.Parent[i][v] = b.parent
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
						snap[i][v] = nd.pl.bests[i].d // run ended before sr
					}
				}
			}
			res.Snapshots[sr] = snap
		}
	}
	for _, nd := range nodes {
		res.LateSends += nd.pl.late
		res.Collisions += nd.pl.collisions
		res.Missed += nd.pl.missed
		res.Inv1Violations += nd.inv1
		res.Inv2Violations += nd.inv2
		if nd.pl.maxList > res.MaxListLen {
			res.MaxListLen = nd.pl.maxList
		}
		if nd.pl.maxPer > res.MaxPerSource {
			res.MaxPerSource = nd.pl.maxPer
		}
		res.Inserts += nd.pl.inserts
		res.Evictions += nd.pl.evicts
		res.NuDrops += nd.pl.nuDrops
		res.DupDrops += nd.dupDrops
	}
	return res, nil
}

// APSP runs Algorithm 1 with every node a source and hop bound n−1
// (sufficient for any shortest path), realizing Theorem I.1(ii):
// APSP in 2n√Δ + 2n rounds for shortest-path distances at most Δ.
func APSP(g *graph.Graph, delta int64, strict bool) (*Result, error) {
	sources := make([]int, g.N())
	for v := range sources {
		sources[v] = v
	}
	return KSSP(g, sources, delta, strict)
}

// KSSP runs Algorithm 1 for k given sources with hop bound n−1, realizing
// Theorem I.1(iii).
func KSSP(g *graph.Graph, sources []int, delta int64, strict bool) (*Result, error) {
	h := g.N() - 1
	if h < 1 {
		h = 1
	}
	return Run(g, Opts{Sources: sources, H: h, Delta: delta, Strict: strict})
}
