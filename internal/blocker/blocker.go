// Package blocker computes blocker sets (Definition III.1): given an h-hop
// CSSSP collection, a set Q of vertices hitting every root-to-leaf path of
// length exactly h in every tree. It follows the structure of Sec. III-B:
//
//  1. children discovery — each tree member tells its parent, per tree
//     (pipelined, several parents can be served in the same round);
//  2. score initialization — a pipelined convergecast per tree computes
//     score_v(x) = number of depth-h descendants of v in T_x;
//  3. a greedy loop: aggregate the maximum total score to a BFS-tree root
//     (the node with the most uncovered paths), broadcast the chosen
//     blocker c, zero the scores of c's descendants by pipelining source
//     IDs down the common subtree (the paper's Algorithm 4), and subtract
//     c's per-tree scores at its ancestors by pipelining them up the
//     in-tree of Lemma III.7 — until the maximum score is zero.
//
// Every phase is executed on the CONGEST engine and its rounds are
// accounted; the greedy selection per pick costs O(diameter), matching the
// aggregation the paper inherits from [3].
package blocker

import (
	"fmt"
	"slices"

	"repro/internal/bcast"
	"repro/internal/congest"
	"repro/internal/cssp"
	"repro/internal/graph"
)

// Result reports the blocker set and the cost of computing it.
type Result struct {
	// Q is the blocker set in pick order.
	Q []int
	// Stats accumulates all phases.
	Stats congest.Stats
	// PhaseRounds breaks rounds down by phase name ("claims", "scores",
	// "select", "descendants", "ancestors").
	PhaseRounds map[string]int
	// Scores is each node's final per-tree score (all zero on success).
	Scores [][]int64
}

// msg is the shared payload for the blocker phases: a (kind, tree, value)
// triple.
type msg struct {
	kind int // claim / count / zero / subtract
	tree int
	val  int64
}

// Words reports the message size in words.
func (msg) Words() int { return 3 }

const (
	kindClaim = iota
	kindCount
	kindZero
	kindSub
)

// queueNode is shared plumbing: per-neighbor FIFO queues, one send per
// neighbor per round, flushed in ascending neighbor order so the engine's
// LinkPeak events repeat from run to run.
type queueNode struct {
	nbrs []int   // g.CommNeighbors(id)
	q    [][]msg // q[i] queues for nbrs[i]; nil until the first enqueue
	busy int     // non-empty FIFOs
}

func (qn *queueNode) enqueue(to int, m msg) {
	i, ok := slices.BinarySearch(qn.nbrs, to)
	if !ok {
		panic(fmt.Sprintf("blocker: no link to %d", to))
	}
	if qn.q == nil {
		qn.q = make([][]msg, len(qn.nbrs))
	}
	if len(qn.q[i]) == 0 {
		qn.busy++
	}
	qn.q[i] = append(qn.q[i], m)
}

func (qn *queueNode) flush(ctx *congest.Context) {
	for i, items := range qn.q {
		if len(items) == 0 {
			continue
		}
		ctx.Send(qn.nbrs[i], items[0])
		qn.q[i] = items[1:]
		if len(items) == 1 {
			qn.busy--
		}
	}
}

func (qn *queueNode) empty() bool { return qn.busy == 0 }

// claimNode implements children discovery.
type claimNode struct {
	queueNode
	id       int
	coll     *cssp.Collection
	children [][]int // per tree
}

func (nd *claimNode) Init(ctx *congest.Context) {
	nd.children = make([][]int, len(nd.coll.Sources))
	for i, root := range nd.coll.Sources {
		if nd.id != root && nd.coll.Parent[i][nd.id] >= 0 {
			nd.enqueue(nd.coll.Parent[i][nd.id], msg{kind: kindClaim, tree: i})
		}
	}
}

func (nd *claimNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		mm := m.Payload.(msg)
		if mm.kind != kindClaim {
			ctx.Failf("claims phase: unexpected kind %d", mm.kind)
			return
		}
		nd.children[mm.tree] = append(nd.children[mm.tree], m.From)
	}
	nd.flush(ctx)
}

func (nd *claimNode) Quiescent() bool { return nd.empty() }

// NextWake implements congest.Waker: queued claims drain one per neighbor
// per round; after that, only incoming claims matter.
func (nd *claimNode) NextWake() int {
	if !nd.empty() {
		return 1
	}
	return congest.WakeOnReceive
}

// scoreNode implements the per-tree descendant-leaf convergecast.
type scoreNode struct {
	queueNode
	id       int
	coll     *cssp.Collection
	children [][]int
	score    []int64
	pending  []int
	reported []bool
}

func (nd *scoreNode) Init(ctx *congest.Context) {
	k := len(nd.coll.Sources)
	nd.score = make([]int64, k)
	nd.pending = make([]int, k)
	nd.reported = make([]bool, k)
	for i := range nd.coll.Sources {
		if nd.coll.Hops[i][nd.id] == int64(nd.coll.H) {
			nd.score[i] = 1
		}
		nd.pending[i] = len(nd.children[i])
	}
}

// report enqueues the finished count for tree i to the parent.
func (nd *scoreNode) report(i int) {
	if nd.reported[i] || nd.pending[i] != 0 {
		return
	}
	nd.reported[i] = true
	root := nd.coll.Sources[i]
	if nd.id == root || nd.coll.Parent[i][nd.id] < 0 {
		return
	}
	// Zero counts must still be reported: the parent waits on every child.
	nd.enqueue(nd.coll.Parent[i][nd.id], msg{kind: kindCount, tree: i, val: nd.score[i]})
}

func (nd *scoreNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		mm := m.Payload.(msg)
		if mm.kind != kindCount {
			ctx.Failf("scores phase: unexpected kind %d", mm.kind)
			return
		}
		nd.score[mm.tree] += mm.val
		nd.pending[mm.tree]--
	}
	for i := range nd.score {
		nd.report(i)
	}
	nd.flush(ctx)
}

// NextWake implements congest.Waker: the node acts spontaneously while its
// queues drain or while a finished (pending-zero) count is still to be
// reported; otherwise only a child's report wakes it.
func (nd *scoreNode) NextWake() int {
	if !nd.empty() {
		return 1
	}
	for i := range nd.pending {
		if nd.pending[i] == 0 && !nd.reported[i] {
			return 1
		}
	}
	return congest.WakeOnReceive
}

func (nd *scoreNode) Quiescent() bool {
	if !nd.empty() {
		return false
	}
	for i := range nd.pending {
		// Waiting on children is fine (their messages are in flight); an
		// unreported finished count would be a bug, but report runs every
		// round, so pending-zero implies reported.
		if nd.pending[i] == 0 && !nd.reported[i] {
			return false
		}
	}
	return true
}

// updateNode implements one pick's score updates: Algorithm 4 (descendant
// zeroing, kindZero flowing down tree children) and the ancestor
// subtraction (kindSub flowing up tree parents).
type updateNode struct {
	queueNode
	id       int
	coll     *cssp.Collection
	children [][]int
	score    []int64
	c        int // the chosen blocker
}

func (nd *updateNode) Init(ctx *congest.Context) {
	if nd.id != nd.c {
		return
	}
	// Local step at c: queue the per-tree updates, zero own scores.
	for i := range nd.coll.Sources {
		if nd.score[i] != 0 {
			// Descendant zeroing for trees where c has depth-h descendants
			// (Algorithm 4), and ancestor subtraction of c's count along
			// the path to the root.
			for _, ch := range nd.children[i] {
				nd.enqueue(ch, msg{kind: kindZero, tree: i})
			}
			if p := nd.coll.Parent[i][nd.id]; p >= 0 && nd.id != nd.coll.Sources[i] {
				nd.enqueue(p, msg{kind: kindSub, tree: i, val: nd.score[i]})
			}
		}
		nd.score[i] = 0
	}
}

func (nd *updateNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	for _, m := range inbox {
		mm := m.Payload.(msg)
		i := mm.tree
		switch mm.kind {
		case kindZero:
			nd.score[i] = 0
			for _, ch := range nd.children[i] {
				nd.enqueue(ch, msg{kind: kindZero, tree: i})
			}
		case kindSub:
			nd.score[i] -= mm.val
			if nd.score[i] < 0 {
				ctx.Failf("ancestor update drove score below zero at node %d tree %d", nd.id, i)
				return
			}
			if p := nd.coll.Parent[i][nd.id]; p >= 0 && nd.id != nd.coll.Sources[i] {
				nd.enqueue(p, msg{kind: kindSub, tree: i, val: mm.val})
			}
		default:
			ctx.Failf("update phase: unexpected kind %d", mm.kind)
			return
		}
	}
	nd.flush(ctx)
}

func (nd *updateNode) Quiescent() bool { return nd.empty() }

// NextWake implements congest.Waker: queued updates drain one per neighbor
// per round.
func (nd *updateNode) NextWake() int {
	if !nd.empty() {
		return 1
	}
	return congest.WakeOnReceive
}

// Compute runs the full blocker-set computation on the collection. cfg
// carries the engine knobs for every internal phase (claims, scores, the
// greedy selection loop and the score updates); its Observer receives all
// of their events. The zero Config is fine.
func Compute(g *graph.Graph, coll *cssp.Collection, cfg congest.Config) (*Result, error) {
	n := g.N()
	k := len(coll.Sources)
	res := &Result{PhaseRounds: make(map[string]int)}

	// Phase 1: children discovery.
	claims := make([]*claimNode, n)
	st, err := congest.Run(g, func(v int) congest.Node {
		claims[v] = &claimNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll}
		return claims[v]
	}, cfg)
	res.Stats.Add(st)
	res.PhaseRounds["claims"] = st.Rounds
	if err != nil {
		return nil, fmt.Errorf("blocker: claims: %w", err)
	}
	children := make([][][]int, n)
	for v := range claims {
		children[v] = claims[v].children
	}

	// Phase 2: score initialization.
	scores := make([]*scoreNode, n)
	st, err = congest.Run(g, func(v int) congest.Node {
		scores[v] = &scoreNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll, children: children[v]}
		return scores[v]
	}, cfg)
	res.Stats.Add(st)
	res.PhaseRounds["scores"] = st.Rounds
	if err != nil {
		return nil, fmt.Errorf("blocker: scores: %w", err)
	}
	score := make([][]int64, n)
	for v := range scores {
		score[v] = scores[v].score
	}

	// BFS tree for the greedy aggregation.
	tree, st, err := bcast.BuildTree(g, 0, cfg)
	res.Stats.Add(st)
	res.PhaseRounds["select"] += st.Rounds
	if err != nil {
		return nil, fmt.Errorf("blocker: aggregation tree: %w", err)
	}

	// Phase 3: greedy loop.
	for iter := 0; iter <= n; iter++ {
		totals := make([]int64, n)
		for v := 0; v < n; v++ {
			for i := 0; i < k; i++ {
				totals[v] += score[v][i]
			}
		}
		maxScore, arg, st, err := bcast.MaxArg(g, tree, totals, cfg)
		res.Stats.Add(st)
		res.PhaseRounds["select"] += st.Rounds
		if err != nil {
			return nil, fmt.Errorf("blocker: select: %w", err)
		}
		if maxScore == 0 {
			res.Scores = score
			return res, nil
		}
		c := int(arg)
		// Announce c (a one-value broadcast down the BFS tree): each node
		// keeps the pick it received in a one-entry row.
		picks := make([][]int64, n)
		for v := range picks {
			picks[v] = []int64{-1}
		}
		picks, st, err = bcast.Broadcast(g, tree, []bcast.Vec{{arg}}, picks, func(_ int, row []int64, x bcast.Vec) { row[0] = x[0] }, cfg)
		res.Stats.Add(st)
		res.PhaseRounds["select"] += st.Rounds
		if err != nil {
			return nil, fmt.Errorf("blocker: announce: %w", err)
		}
		res.Q = append(res.Q, c)

		// Score updates at descendants (Algorithm 4) and ancestors.
		updates := make([]*updateNode, n)
		st, err = congest.Run(g, func(v int) congest.Node {
			updates[v] = &updateNode{queueNode: queueNode{nbrs: g.CommNeighbors(v)}, id: v, coll: coll, children: children[v], score: score[v], c: int(picks[v][0])}
			return updates[v]
		}, cfg)
		res.Stats.Add(st)
		res.PhaseRounds["descendants"] += st.Rounds // both updates share the phase
		if err != nil {
			return nil, fmt.Errorf("blocker: updates after pick %d: %w", c, err)
		}
	}
	return nil, fmt.Errorf("blocker: greedy loop did not terminate within n picks")
}

// VerifyCoverage checks Definition III.1: every root-to-leaf path of length
// exactly h in every tree contains a vertex of Q. It returns the uncovered
// (tree, leaf) pairs.
func VerifyCoverage(coll *cssp.Collection, q []int) []string {
	inQ := make(map[int]bool, len(q))
	for _, c := range q {
		inQ[c] = true
	}
	var bad []string
	for i := range coll.Sources {
		for v := range coll.Parent[i] {
			path := coll.PathTo(i, v)
			if len(path)-1 != coll.H {
				continue
			}
			covered := false
			for _, u := range path {
				if inQ[u] {
					covered = true
					break
				}
			}
			if !covered {
				bad = append(bad, fmt.Sprintf("tree %d: depth-%d leaf %d uncovered", i, coll.H, v))
			}
		}
	}
	return bad
}
