// Package scaling implements the extension the paper leaves as future work
// (Sec. V, Conclusion): combining the pipelined strategy with Gabow's
// scaling technique [9] to get weight-insensitive exact APSP.
//
// Gabow's scaling processes the weight bits most-significant first. With
// B = ⌈log₂(W+1)⌉, phase t ∈ {B−1, …, 0} uses the scaled weights
// w_t(e) = ⌊w(e)/2^t⌋ = 2·w_{t+1}(e) + bit_t(e). Given the previous
// phase's distances d_{t+1}(x,·), the reduced costs
//
//	c_t^x(u,v) = w_t(u,v) + 2·d_{t+1}(x,u) − 2·d_{t+1}(x,v)
//
// are non-negative, and the phase's shortest-path distances under c_t^x
// are at most n−1 (each edge contributes its bit plus slack that
// telescopes away), so each phase is an (h,k)-SSP instance with the tiny
// promise Δ ≤ n−1 regardless of W — exactly where the pipelined approach
// shines.
//
// The paper's obstacle — "in the scaling algorithm each source sees a
// different edge weight on a given edge" — dissolves once each message
// carries the sender's previous-phase distance: the receiver then computes
// the reduced cost of the traversed edge locally, because it knows its own
// previous-phase distance. The messages grow by one word, which the
// CONGEST budget absorbs, and the whole computation stays deterministic —
// no Ghaffari-style randomized scheduling is needed.
//
// Round complexity: B phases, each a k-source pipelined run with Δ ≤ n−1
// and h = n−1, i.e. O(√(k·n·n)) = O(n^{3/2}) rounds per phase for k = n,
// for O(n^{3/2}·log W) in total — independent of Δ, and better than
// Theorem I.1(ii)'s 2n√Δ whenever Δ ≫ n·log²W.
//
// Each phase node holds a core.List — Algorithm 1's κ-ordered list, send
// schedule and provably-correct Pareto offer rule, used as is: zero
// reduced costs are pervasive (every tight edge has slack 0 and possibly
// bit 0), so this is squarely the zero-weight regime the paper targets.
// This package adds only what Gabow scaling needs on top: the message
// format, the shifted arc weights, the previous-phase distances and the
// reduced-cost arithmetic.
package scaling

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/key"
)

// Opts configures a scaling run.
type Opts struct {
	// Sources is the source set (nil = all nodes).
	Sources []int
	// Engine is the engine environment, handed whole to the congest.Run of
	// every bit phase. MaxRounds == 0 means a slack multiple of the
	// per-phase paper bound. Its Observer sees the phases annotated
	// "bit<t>" via congest.SetPhase, most significant first.
	Engine congest.Config
}

// Result reports exact distances and per-phase costs.
type Result struct {
	Sources []int
	// Dist[i][v] = δ(Sources[i], v).
	Dist [][]int64
	// Stats accumulates all phases; PhaseRounds[t] is the rounds of scaling
	// phase t (index 0 = most significant bit phase).
	Stats       congest.Stats
	PhaseRounds []int
	// Bits is the number of scaling phases B.
	Bits int
}

// phaseMsg is the wire format: an entry extended with the sender's
// previous-phase distance so the receiver can form the reduced cost.
type phaseMsg struct {
	src   int   // source node ID
	d     int64 // reduced-cost distance of the carried path
	l     int64 // hop length
	prevY int64 // sender's previous-phase distance d_{t+1}(src, y)
}

// Words reports the message size: 4 words, within the CONGEST budget.
func (phaseMsg) Words() int { return 4 }

// phaseNode runs one scaling phase: a k-source Pareto-pipelined SSP under
// per-source reduced costs.
type phaseNode struct {
	id      int
	sources []int
	srcIdx  map[int]int // source node ID -> index; shared by the run's nodes
	gamma   key.Gamma
	h       int64

	// scaledW[y] = w_t of the minimum arc y->id (this phase's scale).
	scaledW map[int]int64
	// prev[i] = d_{t+1}(sources[i], id); Inf if unreachable.
	prev []int64

	pl core.List
}

func (nd *phaseNode) Init(ctx *congest.Context) {
	nd.pl.Init(nd.id, nd.gamma, nd.sources, 0)
	if i, ok := nd.srcIdx[nd.id]; ok && nd.prev[i] < graph.Inf {
		nd.pl.Seed(i, 0)
	}
}

func (nd *phaseNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		msg := m.Payload.(phaseMsg)
		w, ok := nd.scaledW[m.From]
		if !ok {
			continue
		}
		i, ok := nd.srcIdx[msg.src]
		if !ok {
			ctx.Failf("scaling: unknown source %d", msg.src)
			return
		}
		if nd.prev[i] >= graph.Inf {
			// Unreachable in the previous phase means unreachable, period;
			// no reduced cost is defined.
			continue
		}
		// Reduced cost of the traversed arc, formed locally:
		// c = w_t(y,v) + 2·d_{t+1}(x,y) − 2·d_{t+1}(x,v).
		c := w + 2*msg.prevY - 2*nd.prev[i]
		if c < 0 {
			ctx.Failf("scaling: negative reduced cost %d at node %d (phase invariant broken)", c, nd.id)
			return
		}
		d := msg.d + c
		l := msg.l + 1
		if l > nd.h || d > nd.h {
			continue // phase promise: distances ≤ n−1
		}
		nd.pl.Offer(i, d, l, m.From, r)
	}
	if s, ok := nd.pl.NextSend(r); ok {
		ctx.Broadcast(phaseMsg{src: nd.sources[s.SrcIdx], d: s.D, l: s.L, prevY: nd.prev[s.SrcIdx]})
	}
}

func (nd *phaseNode) Quiescent() bool { return nd.pl.Quiescent() }

// NextWake implements congest.Waker.
func (nd *phaseNode) NextWake() int { return nd.pl.NextWake() }

// Run computes exact APSP/k-SSP by bit scaling.
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
		return nil, fmt.Errorf("scaling: no sources")
	}
	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("scaling: source %d out of range", s)
		}
	}
	k := len(sources)
	srcIdx := make(map[int]int, k)
	for i, s := range sources {
		srcIdx[s] = i
	}
	res := &Result{Sources: append([]int(nil), sources...)}

	// B = number of bit phases. W = 0 still needs one phase to resolve
	// reachability into 0/Inf distances.
	bits := 0
	for w := g.MaxWeight(); w > 0; w >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	res.Bits = bits

	h := int64(n - 1)
	if h < 1 {
		h = 1
	}
	gamma := key.New(k, int(h), h) // per-phase promise Δ = n−1

	// prev[i][v] carries d_{t+1}(sources[i], v). The first phase runs at
	// scale t = B, where every scaled weight is 0, from prev ≡ 0: it resolves
	// reachability (d_B = 0 or Inf — unreachable nodes simply never receive
	// entries), which is the d_{t+1} that phase B−1 needs.
	prev := make([][]int64, k)
	for i := range prev {
		prev[i] = make([]int64, n)
	}

	cfg := opts.Engine
	if cfg.MaxRounds == 0 {
		b := key.Bound(k, int(h), h)
		mr := 16*b + 4096
		if mr > 1<<30 {
			mr = 1 << 30
		}
		cfg.MaxRounds = int(mr)
	}

	runPhase := func(t int) ([][]int64, error) {
		congest.SetPhase(cfg.Observer, fmt.Sprintf("bit%d", t))
		nodes := make([]*phaseNode, n)
		stats, err := congest.Run(g, func(v int) congest.Node {
			nd := &phaseNode{id: v, sources: sources, srcIdx: srcIdx, gamma: gamma, h: h}
			nd.scaledW = make(map[int]int64)
			for _, e := range g.In(v) {
				w := e.W >> uint(t)
				if old, ok := nd.scaledW[e.From]; !ok || w < old {
					nd.scaledW[e.From] = w
				}
			}
			nd.prev = make([]int64, k)
			for i := range nd.prev {
				nd.prev[i] = prev[i][v]
			}
			nodes[v] = nd
			return nd
		}, cfg)
		res.Stats.Add(stats)
		res.PhaseRounds = append(res.PhaseRounds, stats.Rounds)
		if err != nil {
			return nil, fmt.Errorf("scaling: phase t=%d: %w", t, err)
		}
		// d_t(x,v) = dist_c(x,v) + 2·d_{t+1}(x,v), locally at v.
		out := make([][]int64, k)
		for i := 0; i < k; i++ {
			out[i] = make([]int64, n)
			for v := 0; v < n; v++ {
				if d := nodes[v].pl.BestDist(i); d >= graph.Inf || prev[i][v] >= graph.Inf {
					out[i][v] = graph.Inf
				} else {
					out[i][v] = d + 2*prev[i][v]
				}
			}
		}
		return out, nil
	}

	for t := bits; t >= 0; t-- {
		cur, err := runPhase(t)
		if err != nil {
			return nil, err
		}
		prev = cur
	}
	res.Dist = prev
	return res, nil
}
