// Package posweight implements the classical single-estimate pipelined
// k-source shortest-path algorithm that the paper's Algorithm 1
// generalizes: the scheme of Lenzen–Peleg [12] / Holzer–Wattenhofer [17],
// where each node keeps one best distance estimate per source in a list
// sorted by (d, source) and sends the estimate for source s in round
// r = d(s) + pos(s).
//
// With positive integer edge weights (or unweighted graphs) the schedule is
// sound: the predecessor of the estimate d at v holds d' ≤ d − 1, which is
// the fact the 2n-round bound rests on. With zero-weight edges that fact
// fails — the paper's whole motivation (Sec. II) — and this implementation
// exposes exactly how it fails: in Strict mode (the literature's
// equality-only send rule) estimates can miss their send slot and
// distances come out wrong; in the default lenient mode late sends are
// permitted and counted, trading the round bound for correctness.
//
// This package is both the paper's baseline competitor and the substrate of
// the (1+ε)-approximation of Sec. IV (which runs it per weight scale on a
// positive-weight transform).
package posweight

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
)

// estimate is the wire payload: a distance estimate for one source.
type estimate struct {
	src int   // source node ID
	d   int64 // distance estimate
}

// Words reports the message size: source ID and distance, one word each.
func (estimate) Words() int { return 2 }

// Opts configures a run.
type Opts struct {
	// Sources are the source node IDs (k-SSP). Required.
	Sources []int
	// MaxDist drops estimates with distance > MaxDist (0 = unlimited).
	// Used by the approximation algorithm to truncate per-scale searches.
	MaxDist int64
	// Strict selects the literature's equality-only send rule
	// (send s in round r only if d(s) + pos(s) == r). The default lenient
	// rule also sends overdue entries (one per round) and counts them.
	Strict bool
	// Engine is the engine environment, handed to congest.Run whole
	// (MaxRounds == 0 = the engine's generous default).
	Engine congest.Config
}

// Result is the outcome of a run.
type Result struct {
	// Dist[i][v] is the computed distance from Sources[i] to v (graph.Inf
	// if none was found).
	Dist [][]int64
	// Parent[i][v] is the predecessor of v on the discovered path from
	// Sources[i] (-1 if none; the source's own parent is itself).
	Parent [][]int
	// Stats is the engine cost report.
	Stats congest.Stats
	// LateSends counts sends that happened after their scheduled round
	// (lenient mode only; always 0 with positive weights on schedule).
	LateSends int
	// MissedSends counts entries that were due in some round but not sent
	// in it (strict mode: they may fire later if their position grows, or
	// never).
	MissedSends int
}

type node struct {
	id   int
	opts *Opts

	srcIdx   map[int]int // source ID -> index in Sources
	dist     []int64     // per source index
	parent   []int
	inW      map[int]int64 // sender -> min arc weight into this node
	list     []int         // source indices, sorted by (dist, srcID)
	needSend []bool
	curRound int

	late, missed int
}

func (nd *node) Init(ctx *congest.Context) {
	k := len(nd.opts.Sources)
	nd.srcIdx = make(map[int]int, k)
	nd.dist = make([]int64, k)
	nd.parent = make([]int, k)
	nd.needSend = make([]bool, k)
	for i, s := range nd.opts.Sources {
		nd.srcIdx[s] = i
		nd.dist[i] = graph.Inf
		nd.parent[i] = -1
	}
	nd.inW = make(map[int]int64)
	for _, e := range ctx.InEdges() {
		if w, ok := nd.inW[e.From]; !ok || e.W < w {
			nd.inW[e.From] = e.W
		}
	}
	if i, ok := nd.srcIdx[nd.id]; ok {
		nd.dist[i] = 0
		nd.parent[i] = nd.id
		nd.needSend[i] = true
		nd.list = append(nd.list, i)
	}
}

// listLess orders source indices by (distance, source ID).
func (nd *node) listLess(a, b int) bool {
	if nd.dist[a] != nd.dist[b] {
		return nd.dist[a] < nd.dist[b]
	}
	return nd.opts.Sources[a] < nd.opts.Sources[b]
}

// improve records a strictly better estimate for source index i and
// repositions it in the list.
func (nd *node) improve(i int, d int64, from int) {
	had := nd.dist[i] < graph.Inf
	nd.dist[i] = d
	nd.parent[i] = from
	nd.needSend[i] = true
	if had {
		// Remove the stale position.
		for p, j := range nd.list {
			if j == i {
				nd.list = append(nd.list[:p], nd.list[p+1:]...)
				break
			}
		}
	}
	p := sort.Search(len(nd.list), func(p int) bool { return !nd.listLess(nd.list[p], i) })
	nd.list = append(nd.list, 0)
	copy(nd.list[p+1:], nd.list[p:])
	nd.list[p] = i
}

func (nd *node) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	nd.curRound = r
	for _, m := range inbox {
		est := m.Payload.(estimate)
		w, ok := nd.inW[m.From]
		if !ok {
			continue // link exists but no arc into this node (directed graph)
		}
		i, ok := nd.srcIdx[est.src]
		if !ok {
			ctx.Failf("estimate for unknown source %d", est.src)
			return
		}
		d := est.d + w
		if nd.opts.MaxDist > 0 && d > nd.opts.MaxDist {
			continue
		}
		if d < nd.dist[i] {
			nd.improve(i, d, m.From)
		}
	}
	// Send phase: pick the lowest-ordered entry that is due. In strict mode
	// "due" means schedule == r; lenient also allows overdue (late) sends.
	sendP := -1
	late := false
	for p, i := range nd.list {
		if !nd.needSend[i] {
			continue
		}
		sched := nd.dist[i] + int64(p) + 1
		if sched == int64(r) {
			if sendP < 0 {
				sendP = p
			} else {
				nd.missed++ // two entries due in the same round: only one link slot
			}
		} else if sched < int64(r) {
			if nd.opts.Strict {
				nd.missed++
			} else if sendP < 0 {
				sendP, late = p, true
			}
		}
	}
	if sendP >= 0 {
		i := nd.list[sendP]
		ctx.Broadcast(estimate{src: nd.opts.Sources[i], d: nd.dist[i]})
		nd.needSend[i] = false
		if late {
			nd.late++
		}
	}
}

func (nd *node) Quiescent() bool {
	for p, i := range nd.list {
		if !nd.needSend[i] {
			continue
		}
		if !nd.opts.Strict {
			return false // lenient: every pending entry fires eventually
		}
		// Strict: the entry can still fire only if its schedule lies in the
		// future; overdue entries need a position bump (i.e. a receive).
		if nd.dist[i]+int64(p)+1 > int64(nd.curRound) {
			return false
		}
	}
	return true
}

// NextWake implements congest.Waker: the earliest schedule among pending
// entries. Overdue schedules are clamped to the next round by the engine,
// so a strict-mode node with a missed entry is still stepped every round
// and its per-round missed accounting matches the dense engine exactly.
func (nd *node) NextWake() int {
	next := congest.WakeOnReceive
	for p, i := range nd.list {
		if !nd.needSend[i] {
			continue
		}
		if sched := nd.dist[i] + int64(p) + 1; next == congest.WakeOnReceive || sched < int64(next) {
			next = int(sched)
		}
	}
	return next
}

// Run executes the pipelined k-source computation on g.
func Run(g *graph.Graph, opts Opts) (*Result, error) {
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("posweight: no sources")
	}
	seen := make(map[int]bool)
	for _, s := range opts.Sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("posweight: source %d out of range", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("posweight: duplicate source %d", s)
		}
		seen[s] = true
	}
	nodes := make([]*node, g.N())
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = &node{id: v, opts: &opts}
		return nodes[v]
	}, opts.Engine)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dist:   make([][]int64, len(opts.Sources)),
		Parent: make([][]int, len(opts.Sources)),
		Stats:  stats,
	}
	for i := range opts.Sources {
		res.Dist[i] = make([]int64, g.N())
		res.Parent[i] = make([]int, g.N())
		for v, nd := range nodes {
			res.Dist[i][v] = nd.dist[i]
			res.Parent[i][v] = nd.parent[i]
		}
	}
	for _, nd := range nodes {
		res.LateSends += nd.late
		res.MissedSends += nd.missed
	}
	return res, nil
}
