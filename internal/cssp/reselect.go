package cssp

import (
	"repro/internal/congest"
	"repro/internal/graph"
)

// The parent re-selection phase. See Build for why it exists. Protocol:
//
//	rounds 1..k    every tree member broadcasts (src_i, d, l) in source order
//	round k+1..    each node checks, per source, whether some in-neighbor
//	               announced exactly (d−w, l−1); nodes with no candidate
//	               leave the tree and broadcast an INVALID notice (one per
//	               round); dependents re-check and may cascade
//
// At quiescence every remaining member picks the minimum-ID valid
// candidate as its parent, which is a purely local step.

const (
	kindAnnounce = iota
	kindInvalid
)

type reselMsg struct {
	kind int
	src  int
	d, l int64
}

// Words reports the message size in words.
func (m reselMsg) Words() int {
	if m.kind == kindInvalid {
		return 2
	}
	return 4
}

type nbVal struct {
	d, l int64
}

type reselNode struct {
	id   int
	coll *Collection
	k    int

	inW   map[int]int64
	nb    []map[int]nbVal // per source: announcing in-neighbor -> value
	valid []bool
	invQ  []int // sources whose invalidation is pending broadcast
	cur   int
}

func (nd *reselNode) Init(ctx *congest.Context) {
	nd.k = len(nd.coll.Sources)
	nd.inW = make(map[int]int64)
	for _, e := range ctx.InEdges() {
		if w, ok := nd.inW[e.From]; !ok || e.W < w {
			nd.inW[e.From] = e.W
		}
	}
	nd.nb = make([]map[int]nbVal, nd.k)
	nd.valid = make([]bool, nd.k)
	for i := range nd.nb {
		nd.nb[i] = make(map[int]nbVal)
		nd.valid[i] = nd.coll.Dist[i][nd.id] < graph.Inf
	}
}

// hasCandidate reports whether some announcing in-neighbor carries exactly
// (d−w, l−1) for source i.
func (nd *reselNode) hasCandidate(i int) bool {
	d, l := nd.coll.Dist[i][nd.id], nd.coll.Hops[i][nd.id]
	for q, val := range nd.nb[i] {
		w, ok := nd.inW[q]
		if ok && val.d == d-w && val.l == l-1 {
			return true
		}
	}
	return false
}

// recheck drops this node from tree i when no candidate remains, queueing
// the invalidation broadcast.
func (nd *reselNode) recheck(i int) {
	if !nd.valid[i] || nd.id == nd.coll.Sources[i] {
		return
	}
	if !nd.hasCandidate(i) {
		nd.valid[i] = false
		nd.invQ = append(nd.invQ, i)
	}
}

func (nd *reselNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	nd.cur = r
	var touched []int // sources that lost an announcer, in inbox order (a map would reorder invQ run to run)
	for _, m := range inbox {
		msg := m.Payload.(reselMsg)
		i := msg.src
		if i < 0 || i >= nd.k {
			ctx.Failf("reselect: bad source index %d", i)
			return
		}
		switch msg.kind {
		case kindAnnounce:
			nd.nb[i][m.From] = nbVal{d: msg.d, l: msg.l}
		case kindInvalid:
			delete(nd.nb[i], m.From)
			touched = append(touched, i)
		}
	}
	if r <= nd.k {
		i := r - 1
		if nd.coll.Dist[i][nd.id] < graph.Inf {
			ctx.Broadcast(reselMsg{kind: kindAnnounce, src: i, d: nd.coll.Dist[i][nd.id], l: nd.coll.Hops[i][nd.id]})
		}
		return
	}
	if r == nd.k+1 {
		// All announcements (sent by round k) have been processed by the
		// start of round k+1, which every node executes (NextWake): run
		// the initial validity check.
		for i := 0; i < nd.k; i++ {
			nd.recheck(i)
		}
	}
	for _, i := range touched { // a repeated recheck is a no-op
		nd.recheck(i)
	}
	if len(nd.invQ) > 0 {
		i := nd.invQ[0]
		nd.invQ = nd.invQ[1:]
		ctx.Broadcast(reselMsg{kind: kindInvalid, src: i})
	}
}

func (nd *reselNode) Quiescent() bool {
	return nd.cur > nd.k && len(nd.invQ) == 0
}

// NextWake implements congest.Node: the node acts in every round of the
// announcement window 1..k and in round k+1 (the initial validity check),
// then one round per queued invalidation broadcast.
func (nd *reselNode) NextWake() int {
	if nd.cur <= nd.k || len(nd.invQ) > 0 {
		return nd.cur + 1
	}
	return congest.WakeOnReceive
}

// reselect runs the re-selection protocol and rewrites Parent/Dist/Hops.
func (c *Collection) reselect(g *graph.Graph, cfg congest.Config) (congest.Stats, error) {
	nodes := make([]*reselNode, g.N())
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = &reselNode{id: v, coll: c}
		return nodes[v]
	}, cfg)
	if err != nil {
		return stats, err
	}
	for v, nd := range nodes {
		for i := range c.Sources {
			if v == c.Sources[i] {
				continue
			}
			if !nd.valid[i] {
				c.Parent[i][v] = -1
				c.Dist[i][v] = graph.Inf
				c.Hops[i][v] = -1
				continue
			}
			if c.Dist[i][v] >= graph.Inf {
				continue
			}
			// Local parent selection: minimum-ID candidate.
			d, l := c.Dist[i][v], c.Hops[i][v]
			best := -1
			for q, val := range nd.nb[i] {
				w, ok := nd.inW[q]
				if ok && val.d == d-w && val.l == l-1 && (best < 0 || q < best) {
					best = q
				}
			}
			if best < 0 {
				return stats, &inconsistentError{v: v, src: c.Sources[i]}
			}
			c.Parent[i][v] = best
		}
	}
	return stats, nil
}

type inconsistentError struct{ v, src int }

func (e *inconsistentError) Error() string {
	return "cssp: internal error: valid node has no parent candidate after re-selection"
}
