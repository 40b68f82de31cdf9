// Package bcast provides the global-communication substrate that the
// paper's composite algorithms assume from [3]: a BFS spanning tree of the
// communication graph, convergecast aggregation (max with arg), pipelined
// gathering of value lists at the root, and pipelined broadcast of a value
// list that every node folds into its own row as the values arrive.
//
// These are the standard CONGEST building blocks used by the blocker-set
// greedy selection (Sec. III-B: "the new blocker node c can be identified as
// one with the maximum score") and by Steps 4–5 of Algorithm 3 (per-blocker
// distance broadcast, combined at each node). Each primitive is a separate
// engine run; state flows between phases through per-node arrays, which
// never moves information between nodes — it only carries a node's own
// state into its next phase.
package bcast

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Vec is a small integer-vector payload.
type Vec []int64

// Words reports the payload size in words.
func (v Vec) Words() int { return len(v) }

// Tree describes a rooted BFS spanning tree of the communication graph.
type Tree struct {
	Root     int
	Parent   []int   // Parent[root] == root; -1 if unreachable
	Children [][]int // sorted ascending
	Depth    []int   // hops from root; -1 if unreachable
	Height   int     // max depth
}

// treeNode floods hop distances from the root; each node adopts the
// minimum-distance (then minimum-ID) sender as parent.
type treeNode struct {
	id     int
	root   int
	dist   int
	parent int
	fresh  bool
}

func (t *treeNode) Init(ctx *congest.Context) {
	t.dist = -1
	t.parent = -1
	if t.id == t.root {
		t.dist = 0
		t.parent = t.id
		t.fresh = true
	}
}

func (t *treeNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		d := int(m.Payload.(Vec)[0]) + 1
		if t.dist < 0 || d < t.dist || (d == t.dist && m.From < t.parent) {
			t.dist = d
			t.parent = m.From
			t.fresh = true
		}
	}
	if t.fresh {
		ctx.Broadcast(Vec{int64(t.dist)})
		t.fresh = false
	}
}

func (t *treeNode) Quiescent() bool { return !t.fresh }

// NextWake implements congest.Waker: a freshly improved distance is
// rebroadcast next round; otherwise only a better offer wakes the node.
func (t *treeNode) NextWake() int {
	if t.fresh {
		return 1 // clamped to the next round
	}
	return congest.WakeOnReceive
}

// claimNode notifies each node's parent so parents learn their children.
type claimNode struct {
	id, parent int
	children   []int
	sent       bool
}

func (c *claimNode) Init(*congest.Context) {}
func (c *claimNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		c.children = append(c.children, m.From)
	}
	if !c.sent {
		c.sent = true
		if c.parent >= 0 && c.parent != c.id {
			ctx.Send(c.parent, Vec{1})
		}
	}
}
func (c *claimNode) Quiescent() bool { return c.sent }

// NextWake implements congest.Waker: one spontaneous claim send, then the
// node only collects its children's claims.
func (c *claimNode) NextWake() int {
	if !c.sent {
		return 1
	}
	return congest.WakeOnReceive
}

// BuildTree constructs a BFS spanning tree rooted at root, distributed:
// a flooding phase establishes distances and parents, a claim phase tells
// parents their children. The communication graph must be connected. cfg
// carries the engine knobs for both phases; the zero value is fine.
func BuildTree(g *graph.Graph, root int, cfg congest.Config) (*Tree, congest.Stats, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, congest.Stats{}, fmt.Errorf("bcast: root %d out of range", root)
	}
	tns := make([]*treeNode, n)
	stats, err := congest.Run(g, func(v int) congest.Node {
		tns[v] = &treeNode{id: v, root: root}
		return tns[v]
	}, cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("bcast: BFS phase: %w", err)
	}
	cns := make([]*claimNode, n)
	s2, err := congest.Run(g, func(v int) congest.Node {
		cns[v] = &claimNode{id: v, parent: tns[v].parent}
		return cns[v]
	}, cfg)
	stats.Add(s2)
	if err != nil {
		return nil, stats, fmt.Errorf("bcast: claim phase: %w", err)
	}
	tr := &Tree{Root: root, Parent: make([]int, n), Children: make([][]int, n), Depth: make([]int, n)}
	for v := 0; v < n; v++ {
		tr.Parent[v] = tns[v].parent
		tr.Depth[v] = tns[v].dist
		if tns[v].dist > tr.Height {
			tr.Height = tns[v].dist
		}
		tr.Children[v] = cns[v].children // inbox order is ascending by sender
		if tns[v].dist < 0 {
			return nil, stats, fmt.Errorf("bcast: node %d unreachable from root %d (communication graph disconnected)", v, root)
		}
	}
	return tr, stats, nil
}

// aggNode convergecasts one (value, arg) pair up the tree, keeping the
// maximum value and the smallest arg attaining it.
type aggNode struct {
	id      int
	tree    *Tree
	val     int64
	arg     int64
	pending int // children not yet reported
	sent    bool
}

func (a *aggNode) Init(*congest.Context) { a.pending = len(a.tree.Children[a.id]) }

func (a *aggNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		p := m.Payload.(Vec)
		if p[0] > a.val || (p[0] == a.val && p[1] < a.arg) {
			a.val, a.arg = p[0], p[1]
		}
		a.pending--
	}
	if !a.sent && a.pending == 0 && a.id != a.tree.Root {
		a.sent = true
		ctx.Send(a.tree.Parent[a.id], Vec{a.val, a.arg})
	}
}

func (a *aggNode) Quiescent() bool { return a.sent || a.pending > 0 || a.id == a.tree.Root }

// NextWake implements congest.Waker: a leaf (or a node whose last child
// just reported) sends once, spontaneously; everyone else acts on receive.
func (a *aggNode) NextWake() int {
	if !a.sent && a.pending == 0 && a.id != a.tree.Root {
		return 1
	}
	return congest.WakeOnReceive
}

// MaxArg aggregates the maximum of vals with the smallest arg attaining it
// to the tree root. args default to the node ID. Returns the max, its arg,
// and the run stats. Only the root's view is returned (a follow-up
// Broadcast distributes it when needed). The convergecast takes Height+1
// rounds; MaxRounds == 0 means a slack multiple of that.
func MaxArg(g *graph.Graph, tr *Tree, vals []int64, cfg congest.Config) (int64, int64, congest.Stats, error) {
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 16*(tr.Height+1) + 1024
	}
	nodes := make([]*aggNode, g.N())
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = &aggNode{id: v, tree: tr, val: vals[v], arg: int64(v)}
		return nodes[v]
	}, cfg)
	if err != nil {
		return 0, 0, stats, fmt.Errorf("bcast: MaxArg: %w", err)
	}
	root := nodes[tr.Root]
	return root.val, root.arg, stats, nil
}

// relayQueue is a relay's FIFO of received payloads. It keeps the Payload
// a message arrived with, so a value is boxed once, where it enters the
// stream, and every later hop forwards that same interface value. It
// drains by a head index and rewinds to the front of its array whenever it
// empties, so a relay that forwards as fast as it receives never grows it.
type relayQueue struct {
	items []congest.Payload
	head  int
}

// boxed returns vs as the Payloads a relay queue holds, one box per value.
func boxed(vs []Vec) []congest.Payload {
	ps := make([]congest.Payload, len(vs))
	for i, v := range vs {
		ps[i] = v
	}
	return ps
}

func (q *relayQueue) len() int { return len(q.items) - q.head }

func (q *relayQueue) push(p congest.Payload) { q.items = append(q.items, p) }

func (q *relayQueue) pop() congest.Payload {
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return p
}

// pipeNode relays a stream of Vec values down the tree in pipeline order
// and folds each value into its own row: a relay as the value arrives, the
// root as it sends it.
type pipeNode struct {
	id    int
	tree  *Tree
	src   []Vec // only at root
	sentI int
	queue relayQueue // received, not yet forwarded
	row   []int64
	fold  func(v int, row []int64, x Vec)
}

func (p *pipeNode) Init(*congest.Context) {}

func (p *pipeNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		p.fold(p.id, p.row, m.Payload.(Vec))
		p.queue.push(m.Payload)
	}
	var out congest.Payload
	if p.id == p.tree.Root {
		if p.sentI < len(p.src) {
			p.fold(p.id, p.row, p.src[p.sentI])
			out = p.src[p.sentI]
			p.sentI++
		}
	} else if p.queue.len() > 0 {
		out = p.queue.pop()
	}
	if out != nil {
		for _, c := range p.tree.Children[p.id] {
			ctx.Send(c, out)
		}
	}
}

func (p *pipeNode) Quiescent() bool {
	if p.id == p.tree.Root {
		return p.sentI >= len(p.src)
	}
	return p.queue.len() == 0
}

// NextWake implements congest.Waker: the root streams one value per round
// until its list is exhausted; relays act while their queue drains.
func (p *pipeNode) NextWake() int {
	if !p.Quiescent() {
		return 1
	}
	return congest.WakeOnReceive
}

// Broadcast pipelines the given values from the tree root to every node;
// rounds ≤ len(values) + tree height. Node v keeps no list: it starts from
// the row rows[v] and applies fold(v, row, x) to each value x in stream
// order, as x arrives (the root as it sends x). fold may touch only row and
// read-only inputs, since nodes run on concurrent workers. Returns rows,
// with each node's final row in place of its seed.
func Broadcast(g *graph.Graph, tr *Tree, values []Vec, rows [][]int64, fold func(v int, row []int64, x Vec), cfg congest.Config) ([][]int64, congest.Stats, error) {
	nodes := make([]*pipeNode, g.N())
	stats, err := congest.Run(g, func(v int) congest.Node {
		nodes[v] = &pipeNode{id: v, tree: tr, row: rows[v], fold: fold}
		if v == tr.Root {
			nodes[v].src = values
		}
		return nodes[v]
	}, cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("bcast: Broadcast: %w", err)
	}
	for v, p := range nodes {
		rows[v] = p.row
	}
	return rows, stats, nil
}

// Gather pipelines every node's value list up to the root (a convergecast
// of lists). Each node v contributes items[v]; the root ends with all items
// tagged by origin. Rounds ≤ total items + tree height.
type gatherNode struct {
	id    int
	tree  *Tree
	queue relayQueue
	got   []Vec // only at root
}

func (gn *gatherNode) Init(*congest.Context) {}

func (gn *gatherNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		if gn.id == gn.tree.Root {
			gn.got = append(gn.got, m.Payload.(Vec))
		} else {
			gn.queue.push(m.Payload)
		}
	}
	if gn.id != gn.tree.Root && gn.queue.len() > 0 {
		ctx.Send(gn.tree.Parent[gn.id], gn.queue.pop())
	}
}

func (gn *gatherNode) Quiescent() bool { return gn.id == gn.tree.Root || gn.queue.len() == 0 }

// NextWake implements congest.Waker: a non-root node forwards one queued
// item per round; the root only receives.
func (gn *gatherNode) NextWake() int {
	if !gn.Quiescent() {
		return 1
	}
	return congest.WakeOnReceive
}

// Gather collects items[v] from every node v at the root. Returns the
// root's received items (origin must be encoded in the Vec by the caller).
func Gather(g *graph.Graph, tr *Tree, items [][]Vec, cfg congest.Config) ([]Vec, congest.Stats, error) {
	nodes := make([]*gatherNode, g.N())
	incoming := 0 // items the root receives
	for v, it := range items {
		if v != tr.Root {
			incoming += len(it)
		}
	}
	stats, err := congest.Run(g, func(v int) congest.Node {
		// Each item is boxed here, once; relays forward that Payload.
		gn := &gatherNode{id: v, tree: tr, queue: relayQueue{items: boxed(items[v])}}
		if v == tr.Root {
			gn.got = make([]Vec, 0, incoming)
		}
		nodes[v] = gn
		return gn
	}, cfg)
	if err != nil {
		return nil, stats, fmt.Errorf("bcast: Gather: %w", err)
	}
	out := append([]Vec(nil), items[tr.Root]...)
	out = append(out, nodes[tr.Root].got...)
	return out, stats, nil
}
