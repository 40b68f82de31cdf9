// Package congest simulates the CONGEST model of distributed computation
// (paper Sec. I-B): n processors on the nodes of a graph proceed in
// synchronous rounds; in each round a node may send one O(log n)-bit message
// along each incident communication link and receives, at the start of the
// next round, the messages sent to it in the previous round.
//
// The simulator is the cost substrate for every algorithm in this
// repository: it counts rounds and messages, tracks per-link congestion, and
// *enforces* the model — an oversized payload or two messages pushed on the
// same link direction in one round is an error, not a silent success.
//
// Communication always uses the underlying undirected graph of the input,
// even for directed inputs, exactly as the paper assumes.
//
// # Scheduling
//
// The engine's cost model is rounds, but its wall-clock is host time, and
// the two are decoupled: in most rounds of the paper's pipelined algorithms
// only a handful of nodes have anything to do (the ⌈κ⌉+pos schedule tells
// each node exactly when its next entry fires). The default active-set
// scheduler therefore steps only the nodes that can act this round — nodes
// with a non-empty inbox and nodes whose self-declared wake round (see
// Node.NextWake) has arrived — and fast-forwards over rounds in which that
// set is empty. Stats, results and the Observer event stream are
// bit-identical to the dense engine (RoundEvent.Elapsed, wall clock,
// excepted); Config.Scheduler selects the dense engine for differential
// testing.
//
// # The message plane
//
// The engine's hot path is struct-of-arrays and arena-backed, reused
// across rounds (see DESIGN.md, "The message plane"). Sends are staged in
// one flat outbox arena sized to the total communication degree — node v's
// stage is the fixed sub-slice outBuf[sendOff[v]:sendOff[v+1]], capacity
// exactly deg(v), with link indices staged in a parallel plane so routing
// never searches the adjacency — and inboxes are carved out of one flat,
// double-buffered receive plane by a count-then-scatter pass: the messages
// for a node are a contiguous sub-slice addressed by per-node (end, len)
// cursors, not n append-grown slices. Steady-state rounds allocate
// nothing; protocols that also want allocation-free payloads use the
// pooled payload path (Pool, Context.PayloadReuse).
//
// The planes are also reused across runs: a run hands its engine to a
// pool when it ends, and the next run on a graph of the same shape (node
// count and communication-degree sequence) under the same scheduler, with
// no Network, takes it over and resets only its per-run state. A
// composition such as Algorithm 3, ~200 runs on one communication graph,
// allocates its planes once.
package congest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Payload is implemented by message payloads. Words reports the payload size
// in O(log n)-bit machine words so the engine can enforce the bandwidth
// bound.
type Payload interface {
	Words() int
}

// Message is a single CONGEST message in flight.
type Message struct {
	From, To int
	Payload  Payload
}

// Node is a processor's algorithm. The engine calls Init once (the paper's
// round 0, in which state is set up but nothing is sent), then Round once
// per communication round with the messages sent to this node in the
// previous round, sorted by sender.
//
// Inbox order is an explicit engine invariant, not an accident of
// routing: messages are presented in ascending sender order, with each
// link's messages in the order they were sent. Under a Network (see
// network.go) that order is reconstructed from per-link sequence numbers
// by the reliability shim — physical arrival order carries no meaning,
// and protocols must not be exposed to it.
//
// Inbox slices are views into an engine-owned plane reused across rounds:
// nodes must not retain the slice — or the Payload values it carries —
// past the Round call that delivered them. The planes and the Contexts are
// reused across runs as well, so a node must not keep its *Context or an
// inbox slice after Run returns; no node in this repository does. (A
// payload's value may outlive the run when its sender never recycles it:
// the bcast relays keep the Vec values they were sent.)
//
// Quiescent must report true when the node will send no further messages
// unless it first receives one; the engine halts when every node is
// quiescent and no messages are in flight. Quiescent must be a pure
// function of the node's state: the active-set scheduler caches its value
// between steps.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, r int, inbox []Message)
	Quiescent() bool

	// NextWake declares the node's send schedule. After every step, the
	// active-set scheduler asks the node for the next round in which it
	// may act spontaneously (send, or mutate state in a round-dependent
	// way, e.g. record a snapshot); until that round arrives the node is
	// stepped only when it receives a message. Returning WakeOnReceive
	// declares that only a receive can make the node act; return 0 to be
	// stepped every round.
	//
	// The contract is strict, and a violation is a protocol error, not a
	// slowdown: if a node would have sent (or changed state) in a round
	// earlier than its declared wake, the active-set engine simply never
	// steps it there, and its results diverge from the dense engine's —
	// which is exactly what the scheduler-equivalence difftests detect.
	// Returning a round that is too early is always safe (the node is
	// stepped, finds nothing due, and is asked again); the engine relies on
	// it for stale wakes and for the resume round, in which a restored
	// engine steps every node. Returns ≤ the current round are clamped to
	// the next round. A node that is not Quiescent must not return
	// WakeOnReceive unless a message for it is already in flight.
	NextWake() int
}

// WakeOnReceive is the Node.NextWake sentinel for "step me only when I
// receive a message".
const WakeOnReceive = -1

// Scheduler selects the engine's stepping strategy.
type Scheduler int

const (
	// SchedulerActive (default) steps only the active set each round and
	// fast-forwards over empty rounds. Stats, results and observer events
	// are bit-identical to SchedulerDense (Elapsed excepted).
	SchedulerActive Scheduler = iota
	// SchedulerDense steps all n nodes every round — the reference
	// semantics, kept for differential testing.
	SchedulerDense
)

// Context gives a node its local view: its ID, its incident edges, and the
// send primitives. Nodes must not retain references to inbox slices across
// rounds.
type Context struct {
	id   int
	g    *graph.Graph
	eng  *engine
	nbrs []int // communication neighbors, cached once at engine init

	// out and li are the node's staged sends for the current round: fixed
	// sub-slices of the engine's flat outbox arena (capacity = degree, so
	// a model-respecting node never reallocates them) plus the parallel
	// link-index plane that lets routing skip the adjacency search. A
	// model-violating node (two messages on one link, or a send without a
	// link) spills into a transient heap slice and is rejected by routing.
	out []Message
	li  []int32
	err error
}

// InEdges returns the weighted arcs entering this node.
func (c *Context) InEdges() []graph.Edge { return c.g.In(c.id) }

// Send stages a message to neighbor "to" for delivery next round.
func (c *Context) Send(to int, p Payload) {
	c.out = append(c.out, Message{From: c.id, To: to, Payload: p})
	c.li = append(c.li, int32(c.g.CommIndex(c.id, to)))
}

// Broadcast stages the same message to every communication neighbor. The
// payload value is shared across all staged copies (payloads are
// read-only on the receive side), and the cached neighbor view doubles as
// the link-index sequence, so a broadcast costs no lookups at all.
func (c *Context) Broadcast(p Payload) {
	for i, to := range c.nbrs {
		c.out = append(c.out, Message{From: c.id, To: to, Payload: p})
		c.li = append(c.li, int32(i))
	}
}

// PayloadReuse reports whether sender-owned payload reuse (see Pool) is
// safe in this run: true on the engine's built-in delivery path, false
// when a Network substrate is installed (delayed deliveries and
// retransmit queues may hold a payload arbitrarily long, so reusing it
// would corrupt traffic still in flight).
func (c *Context) PayloadReuse() bool { return c.eng.net == nil }

// Fail records an algorithm-level error; the engine aborts the run and
// returns it.
func (c *Context) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf is Fail with formatting.
func (c *Context) Failf(format string, args ...interface{}) {
	c.Fail(fmt.Errorf(format, args...))
}

// Config controls an engine run. The zero value is usable.
type Config struct {
	// MaxRounds aborts the run with an error after this many rounds
	// (default 1<<22). Algorithms with proven round bounds should pass
	// their bound plus slack so runaway bugs surface as errors.
	MaxRounds int
	// Workers bounds the goroutines stepping nodes within a round. The
	// default is GOMAXPROCS, and GOMAXPROCS also caps it. A round forks
	// only when its predicted node-step time (the run's measured time per
	// stepped node times the round's work-list size) pays for the
	// fork/join barrier: one worker per 100 µs of predicted work, so a
	// round forks in two from 200 µs and is serial below (see step).
	// Results are bit-identical regardless.
	Workers int
	// Scheduler selects the stepping strategy (default SchedulerActive).
	Scheduler Scheduler
	// Network, if set, replaces the engine's built-in perfect delivery
	// with a pluggable delivery substrate (see Network; internal/faults
	// provides the adversarial one plus the reliability shim that keeps
	// results and logical Stats bit-identical). nil keeps the zero-cost
	// built-in path.
	Network Network
	// Observer, if set, receives engine events (round completions,
	// per-node send counts, link-congestion peaks, wall clock per round).
	// nil keeps the engine on its zero-overhead path. Fast-forwarded rounds
	// emit their (empty) RoundDone events so the stream stays identical
	// across schedulers.
	Observer Observer
	// Checkpoint, if set, snapshots the engine at round barriers and/or
	// resumes from a prior Snapshot (see CheckpointPolicy). The policy is
	// shared across all engine runs of a multi-phase algorithm.
	Checkpoint *CheckpointPolicy
	// Ctx, if set, cancels the run at the next round barrier: Run returns
	// an error wrapping context.Cause, after writing a final snapshot to
	// the checkpoint Sink when one is configured. nil means no
	// cancellation (checked once per round, never mid-step).
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 22
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// maxWordsPerMessage is the bandwidth bound B in words: a CONGEST message
// is O(log n) bits, i.e. O(1) words of log n bits.
const maxWordsPerMessage = 8

// chunkNs is the predicted node-step time, in nanoseconds, that one
// worker of a forked round must have to carry: a round forks in two only
// when its predicted serial node-step time is at least 2·chunkNs. On a
// 2-vCPU host, rounds of the sim_blocker and sim_apsp workloads stepped
// serially and forked in two break even between 100 and 200 µs of serial
// work, and the fork wins by 8–17 % from 250 µs (DESIGN.md, "Engine
// scheduling", has the per-bucket table this was read from).
const chunkNs = 100_000

// forced, when set, overrides the fork rule with a fixed width (still
// capped by Config.Workers and by the work list) and counts the rounds
// that fork: the seam through which tests make the parallel path run
// whatever the host and the timings (export_test.go). Nil outside tests.
var forced atomic.Pointer[forcedFork]

type forcedFork struct {
	width int
	forks atomic.Int64
}

// Stats reports the cost of a run in the model's terms.
type Stats struct {
	// Rounds is the index of the last round in which any message was sent:
	// the algorithm's round complexity on this input.
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
	// MaxWords is the largest payload observed, in words.
	MaxWords int
	// MaxLinkCongestion is the maximum number of messages carried by a
	// single link direction over the whole run (the paper's "congestion").
	MaxLinkCongestion int
	// MaxNodeSends is the largest total number of messages sent by any
	// single node — a load-balance indicator (hotspots show up here, e.g.
	// the roots of broadcast trees).
	MaxNodeSends int
}

// Add accumulates s2 into s for multi-phase algorithms: rounds add
// (phases run sequentially), congestion takes the max.
func (s *Stats) Add(s2 Stats) {
	s.Rounds += s2.Rounds
	s.Messages += s2.Messages
	if s2.MaxWords > s.MaxWords {
		s.MaxWords = s2.MaxWords
	}
	if s2.MaxLinkCongestion > s.MaxLinkCongestion {
		s.MaxLinkCongestion = s2.MaxLinkCongestion
	}
	if s2.MaxNodeSends > s.MaxNodeSends {
		s.MaxNodeSends = s2.MaxNodeSends
	}
}

// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
var ErrMaxRounds = errors.New("congest: exceeded MaxRounds without quiescing")

// wakeItem is a pending wake request for a node. The heap is indexed (pos
// tracks each node's entry), so a node has at most one live entry at any
// time: re-arming moves it in place with heap.Fix instead of accumulating
// stale entries, keeping the heap at ≤ n items with no lazy-deletion pops.
type wakeItem struct {
	round, node int
}

type wakeHeap struct {
	items []wakeItem
	pos   []int // node -> index in items; -1 when absent
}

// The sift code is container/heap's algorithm with concrete types: the
// stdlib API moves items through interface{} values, which boxes (heap-
// allocates) a wakeItem on every push — on the engine's zero-alloc round
// path that is the whole ballgame. (round, node) is a strict total order,
// so the pop sequence is layout-independent.
func (h *wakeHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.round < b.round || (a.round == b.round && a.node < b.node)
}

func (h *wakeHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].node] = i
	h.pos[h.items[j].node] = j
}

func (h *wakeHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *wakeHeap) down(i, n int) bool {
	i0 := i
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *wakeHeap) push(it wakeItem) {
	h.pos[it.node] = len(h.items)
	h.items = append(h.items, it)
	h.up(len(h.items) - 1)
}

// popMin removes and returns the earliest wake.
func (h *wakeHeap) popMin() wakeItem {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	h.pos[it.node] = -1
	return it
}

// fix restores the heap after items[i].round changed in place.
func (h *wakeHeap) fix(i int) {
	if !h.down(i, len(h.items)) {
		h.up(i)
	}
}

// remove deletes the entry at index i.
func (h *wakeHeap) remove(i int) {
	n := len(h.items) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	it := h.items[n]
	h.items = h.items[:n]
	h.pos[it.node] = -1
}

// engine holds a run's state in struct-of-arrays form: every per-node
// quantity is a parallel slice indexed by node ID (activity flags,
// quiescence cache, wake rounds, send counters, inbox cursors), message
// storage is flat arenas reused across rounds, and the Contexts themselves
// live in one contiguous slice. An engine outlives its run: see planes.
type engine struct {
	g     *graph.Graph
	cfg   Config
	sched Scheduler // the planes' scheduler, kept across recycling
	obs   Observer
	net   Network
	nodes []Node
	ctxs  []Context // contiguous; node v's view is &ctxs[v]

	// Flat send plane. Node v's staged sends live in the fixed arena
	// region outBuf[sendOff[v]:sendOff[v+1]] (capacity = its degree; the
	// Context holds the capped sub-slice), with link indices staged in
	// the parallel outLi region by Send/Broadcast. linkLoad is the flat
	// per-(sender, neighbor-index) congestion plane over the same
	// offsets.
	outBuf   []Message
	outLi    []int32
	sendOff  []int32 // n+1 prefix sums of communication degree
	linkLoad []int32

	// netBatch stages the round's validated sends when a Network is
	// installed (the built-in path scatters into the receive plane
	// instead).
	netBatch []Message

	// Flat receive plane, double-buffered and reused across rounds. The
	// round's inbox for node v is the contiguous sub-slice
	// recvCur[inEnd[v]-inLen[v]:inEnd[v]] (inLen[v] == 0 means empty; the
	// cursors of nodes outside recvList are stale and never read). The
	// routing pass counts next-round messages per destination into
	// nxtLen, carves disjoint regions of recvNxt, and scatters in
	// ascending sender order — which is exactly the inbox-sorted-by-
	// sender delivery contract, with no per-destination slices and no
	// sort. recvList names the nodes with a non-empty inbox this round;
	// recvNext the destinations of the round being routed.
	recvCur, recvNxt []Message
	inEnd, inLen     []int32
	nxtEnd, nxtLen   []int32
	recvList         []int
	recvNext         []int

	nodeSends []int
	seenStamp []int // per-destination round stamp for duplicate-link checks

	// Quiescence and inflight tracking, maintained incrementally: the
	// per-round termination check is O(1) on both schedulers. quiescent[v]
	// is the cached Quiescent() of v's last step (Quiescent is a pure
	// function of node state, which only changes when the node is stepped);
	// inflight counts undelivered+unconsumed messages, which equals the
	// previous round's send count because every receiver is stepped.
	quiescent []bool
	quiCount  int
	inflight  int

	// Active-set scheduler state.
	wakeAt   []int // currently requested wake round per node; 0 = none
	wakes    wakeHeap
	work     []int // the round's active list (sorted ascending)
	mark     []int // epoch stamps deduplicating work-list inserts
	epoch    int
	allNodes []int // 0..n-1, the dense scheduler's work list

	// Crash isolation: panics inside a node's Round are recovered into
	// CrashErrors (crashMu serializes worker-goroutine reports; the
	// lowest-node crash wins so the outcome is worker-count independent).
	crashMu sync.Mutex
	crash   *CrashError

	// Fork sizing (see step). procs is min(Workers, GOMAXPROCS) for the
	// run; nsPerNode is the last executed round's node-step time per
	// stepped node, 0 at run start, so a run's first round is serial; busy
	// sums a forked round's per-worker chunk times.
	procs     int
	nsPerNode int64
	busy      atomic.Int64

	stats Stats
}

// phaseName asks the observer for the current algorithm phase, for crash
// attribution; "" when no observer tracks phases.
func (e *engine) phaseName() string {
	if pt, ok := e.obs.(PhaseTracker); ok {
		return pt.CurrentPhase()
	}
	return ""
}

// inboxOf returns node v's inbox for the current round: a contiguous view
// into the receive plane.
func (e *engine) inboxOf(v int) []Message {
	l := e.inLen[v]
	if l == 0 {
		return nil
	}
	end := e.inEnd[v]
	return e.recvCur[end-l : end]
}

// planes holds engines whose runs have ended, so that the next run on a
// same-shaped graph reuses their planes instead of allocating them: a
// composition such as Algorithm 3 makes ~200 runs on one communication
// graph. sync.Pool lets the collector drop idle engines, so nothing stays
// pinned between compositions.
var planes sync.Pool

// claim returns an engine whose planes fit a run on g under cfg: a pooled
// one, reset, when it is reusable; otherwise a freshly allocated one. A run
// over a Network always gets fresh planes: its delivery path sizes the
// receive plane itself.
func claim(g *graph.Graph, cfg Config) *engine {
	if cfg.Network == nil {
		if e, _ := planes.Get().(*engine); e != nil && e.reusable(g, cfg) {
			e.reset()
			return e
		}
	}
	return allocEngine(g, cfg.Scheduler)
}

// start begins a run on e's planes: nodes constructed and Init-ed (the
// model's round 0), Contexts carved, scheduler state seeded.
func (e *engine) start(g *graph.Graph, mk func(v int) Node, cfg Config) error {
	n := g.N()
	e.g, e.cfg, e.obs, e.net = g, cfg, cfg.Observer, cfg.Network
	e.procs, e.nsPerNode = min(cfg.Workers, runtime.GOMAXPROCS(0)), 0
	for v := 0; v < n; v++ {
		e.nodes[v] = mk(v)
		lo, hi := e.sendOff[v], e.sendOff[v+1]
		e.ctxs[v] = Context{
			id:   v,
			g:    g,
			eng:  e,
			nbrs: g.CommNeighbors(v),
			out:  e.outBuf[lo:lo:hi],
			li:   e.outLi[lo:lo:hi],
		}
	}
	if e.net != nil {
		e.net.Reset(n)
	}
	if e.obs != nil {
		e.obs.RunStart(n)
	}
	for v := 0; v < n; v++ {
		e.nodes[v].Init(&e.ctxs[v])
		if err := e.ctxs[v].err; err != nil {
			return fmt.Errorf("congest: node %d failed in Init: %w", v, err)
		}
		if len(e.ctxs[v].out) != 0 {
			return fmt.Errorf("congest: node %d sent during Init (the model's round 0 has no sends)", v)
		}
	}
	for v := 0; v < n; v++ {
		if e.nodes[v].Quiescent() {
			e.quiescent[v] = true
			e.quiCount++
		}
	}
	if cfg.Scheduler != SchedulerDense {
		for v := 0; v < n; v++ {
			e.arm(v, 0)
		}
	}
	return nil
}

// allocEngine allocates the planes for g under the given scheduler, in
// the state reset leaves a recycled engine in.
func allocEngine(g *graph.Graph, sched Scheduler) *engine {
	n := g.N()
	e := &engine{
		sched:     sched,
		nodes:     make([]Node, n),
		ctxs:      make([]Context, n),
		sendOff:   make([]int32, n+1),
		inEnd:     make([]int32, n),
		inLen:     make([]int32, n),
		nxtEnd:    make([]int32, n),
		nxtLen:    make([]int32, n),
		nodeSends: make([]int, n),
		seenStamp: make([]int, n),
		quiescent: make([]bool, n),
		allNodes:  make([]int, n),
	}
	for v := 0; v < n; v++ {
		e.sendOff[v+1] = e.sendOff[v] + int32(g.Degree(v))
		e.seenStamp[v] = -1
		e.allNodes[v] = v
	}
	deg2 := int(e.sendOff[n]) // sum of degrees = 2m undirected arcs
	e.outBuf = make([]Message, deg2)
	e.outLi = make([]int32, deg2)
	e.linkLoad = make([]int32, deg2)
	// Receive planes and routing scratch, sized for the model's worst case
	// up front (≤1 message per arc per round, ≤n destinations): the steady
	// state never grows them, so rounds never re-allocate — the property
	// the allocation guards in alloc_test.go enforce.
	e.recvCur = make([]Message, 0, deg2)
	e.recvNxt = make([]Message, 0, deg2)
	e.recvList = make([]int, 0, n)
	e.recvNext = make([]int, 0, n)
	e.work = make([]int, 0, n)
	if sched != SchedulerDense {
		e.wakeAt = make([]int, n)
		e.mark = make([]int, n)
		e.wakes.items = make([]wakeItem, 0, n)
		e.wakes.pos = make([]int, n)
		for v := range e.wakes.pos {
			e.wakes.pos[v] = -1
		}
	}
	return e
}

// reusable reports whether e's planes fit a run on g under cfg: the same
// node count, the same communication-degree sequence (which fixes every
// plane's size and the send offsets) and the same scheduler. The key is
// the degree sequence, not the graph: a graph and its reverse share one
// communication graph, and Algorithm 3 alternates between the two.
func (e *engine) reusable(g *graph.Graph, cfg Config) bool {
	if cfg.Scheduler != e.sched || len(e.nodes) != g.N() {
		return false
	}
	for v := range e.nodes {
		if e.sendOff[v+1]-e.sendOff[v] != int32(g.Degree(v)) {
			return false
		}
	}
	return true
}

// reset clears the per-run state a previous run can leave behind on a
// recycled engine — counters, congestion, inbox lengths, stamps and the
// wake heap — back to what allocEngine leaves. What every run writes
// before it reads (the inbox end cursors, the receive planes' lengths, the
// routing and work lists) carries over, and so do the work-list marks:
// epoch only grows, so every stale mark is below it.
// Payload references were dropped by release.
func (e *engine) reset() {
	clear(e.linkLoad)
	clear(e.inLen)
	clear(e.nxtLen)
	clear(e.nodeSends)
	clear(e.quiescent)
	for v := range e.seenStamp {
		e.seenStamp[v] = -1
	}
	e.recvList = e.recvList[:0]
	e.quiCount, e.inflight = 0, 0
	if e.sched != SchedulerDense {
		clear(e.wakeAt)
		e.wakes.items = e.wakes.items[:0]
		for v := range e.wakes.pos {
			e.wakes.pos[v] = -1
		}
	}
	e.stats = Stats{}
}

// release hands e to the pool once its run has ended, dropping every
// reference into protocol memory — staged and delivered payloads, nodes,
// Contexts, the graph, the configuration — so a pooled engine keeps no
// run alive. A run over a Network never takes pooled planes (see claim),
// so its engine is left to the collector rather than pooled.
func (e *engine) release() {
	if e.net != nil {
		return
	}
	clear(e.outBuf)
	clear(e.recvCur[:cap(e.recvCur)])
	clear(e.recvNxt[:cap(e.recvNxt)])
	clear(e.nodes)
	clear(e.ctxs)
	e.g, e.cfg, e.obs, e.crash = nil, Config{}, nil, nil
	planes.Put(e)
}

// Run executes the algorithm created by mk (called once per node, in node
// order) until every node is quiescent and no messages are in flight, or
// until cfg.MaxRounds is exceeded.
func Run(g *graph.Graph, mk func(v int) Node, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	return claim(g, cfg).run(g, mk, cfg)
}

// run is one engine run on e's planes, which go back to the pool on exit.
func (e *engine) run(g *graph.Graph, mk func(v int) Node, cfg Config) (Stats, error) {
	pol := cfg.Checkpoint
	runIdx := 0
	if pol != nil {
		runIdx = pol.beginRun()
	}
	err := e.start(g, mk, cfg)
	// Deferred calls run last first: RunDone fires, then the planes go
	// back to the pool.
	defer e.release()
	if e.obs != nil {
		// RunDone fires on every exit path — normal quiescence, MaxRounds
		// and algorithm failures alike — with the stats accumulated so far.
		defer func() { e.obs.RunDone(e.stats) }()
	}
	if err != nil {
		return e.stats, err
	}

	startR := 1
	if pol != nil && pol.Resume != nil && pol.Resume.RunIdx == runIdx {
		if err := e.restore(pol.Resume); err != nil {
			return e.stats, fmt.Errorf("congest: resume: %w", err)
		}
		startR = pol.Resume.Round
	}
	return e.loop(startR, runIdx)
}

// loop is the round loop, from round startR until quiescence or abort.
func (e *engine) loop(startR, runIdx int) (Stats, error) {
	cfg := e.cfg
	pol := cfg.Checkpoint
	dense := cfg.Scheduler == SchedulerDense
	crasher, _ := e.net.(Crasher)
	n := len(e.nodes)

	for r := startR; ; r++ {
		if r > cfg.MaxRounds {
			return e.stats, fmt.Errorf("%w (MaxRounds=%d)", ErrMaxRounds, cfg.MaxRounds)
		}
		if e.quiCount == n && e.inflight == 0 {
			return e.stats, nil
		}
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				// A cancellation lands on a clean barrier: write a final
				// snapshot (best effort — the cancellation error wins) so
				// the run is resumable, then abort.
				if pol != nil && pol.Sink != nil {
					if snap, serr := e.snapshot(r, runIdx); serr == nil {
						_ = pol.Sink(snap)
					}
				}
				return e.stats, fmt.Errorf("congest: run canceled at round %d: %w", r, context.Cause(cfg.Ctx))
			default:
			}
		}
		if pol != nil {
			if stop, due := pol.due(runIdx, r); due {
				snap, err := e.snapshot(r, runIdx)
				if err != nil {
					return e.stats, err
				}
				if err := pol.Sink(snap); err != nil {
					return e.stats, fmt.Errorf("congest: checkpoint sink: %w", err)
				}
				if stop {
					return e.stats, ErrCheckpointStop
				}
			}
		}
		if crasher != nil {
			if v, restart, due := crasher.CrashDue(r); due {
				return e.stats, &CrashError{Node: v, Round: r, Phase: e.phaseName(), Restart: restart}
			}
		}
		if e.net != nil {
			e.collectNet(r)
		}
		work := e.allNodes
		if !dense {
			work = e.collectActive(r)
			if len(work) == 0 {
				// Fast-forward: no inbox is pending (every receiver is in the
				// work list), no wake is due, and every stragglers-free round
				// up to the next wake (or the network's next due delivery)
				// would step nothing and send nothing — so no state changes
				// and the termination conditions cannot flip mid-skip. Jump
				// there, emitting the empty RoundDone events the dense
				// engine would have produced.
				target := cfg.MaxRounds + 1
				if next := e.nextWake(); next > 0 && next <= cfg.MaxRounds {
					target = next
				}
				if e.net != nil {
					if due := e.net.NextDue(r + 1); due > 0 && due < target {
						target = due
					}
				}
				// Checkpoints and scripted crashes fire at exact rounds;
				// clamp the skip so neither is jumped over.
				if pol != nil {
					if due := pol.nextDue(r+1, runIdx); due > 0 && due < target {
						target = due
					}
				}
				if crasher != nil {
					if due := crasher.NextCrash(r + 1); due > 0 && due < target {
						target = due
					}
				}
				if e.obs != nil {
					for rr := r; rr < target; rr++ {
						e.obs.RoundDone(RoundEvent{Round: rr})
					}
				}
				r = target - 1
				continue
			}
		}
		var start time.Time
		if e.obs != nil {
			start = time.Now()
		}
		sent, active, err := e.step(r, work, dense)
		if err != nil {
			return e.stats, err
		}
		if sent > 0 {
			e.stats.Rounds = r
		}
		if e.obs != nil {
			e.obs.RoundDone(RoundEvent{Round: r, Sent: sent, Active: active, Elapsed: time.Since(start)})
		}
	}
}

// collectNet drains the Network's round-r deliveries into the receive
// plane. The batch arrives sorted by (To, From) — the delivery-order
// invariant — so each destination's messages are already a contiguous run
// and the plane is filled by one sequential copy.
func (e *engine) collectNet(r int) {
	batch := e.net.Collect(r)
	if len(batch) == 0 {
		return
	}
	if cap(e.recvCur) < len(batch) {
		e.recvCur = make([]Message, len(batch))
	} else {
		e.recvCur = e.recvCur[:len(batch)]
	}
	copy(e.recvCur, batch)
	for i := 0; i < len(batch); {
		to := batch[i].To
		j := i + 1
		for j < len(batch) && batch[j].To == to {
			j++
		}
		e.inEnd[to] = int32(j)
		e.inLen[to] = int32(j - i)
		e.recvList = append(e.recvList, to)
		i = j
	}
}

// arm records node v's next self-declared wake round after a step in round
// r (0 for the post-Init arm). Returns ≤ r are clamped to r+1; a previous
// request is updated in place via the heap's node index.
func (e *engine) arm(v, r int) {
	w := e.nodes[v].NextWake()
	if w < 0 {
		// WakeOnReceive: only an incoming message steps v.
		if p := e.wakes.pos[v]; p >= 0 {
			e.wakes.remove(p)
		}
		e.wakeAt[v] = 0
		return
	}
	if w <= r {
		w = r + 1
	}
	if e.wakeAt[v] == w {
		return
	}
	e.wakeAt[v] = w
	if p := e.wakes.pos[v]; p >= 0 {
		e.wakes.items[p].round = w
		e.wakes.fix(p)
	} else {
		e.wakes.push(wakeItem{round: w, node: v})
	}
}

// nextWake returns the smallest pending wake round; 0 when none is pending.
func (e *engine) nextWake() int {
	if len(e.wakes.items) > 0 {
		return e.wakes.items[0].round
	}
	return 0
}

// collectActive assembles round r's active list: every node with a
// non-empty inbox and every node whose wake round has arrived. Sorted
// ascending so the routing pass visits senders in node order (the
// inbox-sorted-by-sender delivery contract).
func (e *engine) collectActive(r int) []int {
	e.epoch++
	work := e.work[:0]
	add := func(v int) {
		if e.mark[v] != e.epoch {
			e.mark[v] = e.epoch
			work = append(work, v)
		}
	}
	for _, v := range e.recvList {
		add(v)
	}
	for len(e.wakes.items) > 0 && e.wakes.items[0].round <= r {
		it := e.wakes.popMin()
		e.wakeAt[it.node] = 0
		add(it.node)
	}
	e.work = work
	if len(work) == len(e.nodes) {
		return e.allNodes // the whole graph is active; already sorted
	}
	sort.Ints(work)
	return work
}

// stepNode runs one node's Round under panic isolation: a panic inside
// protocol code is recovered into a structured CrashError (node, round,
// phase) instead of unwinding the engine; the other nodes of the same
// round finish their steps untouched. When several nodes panic in one
// round the lowest node wins, so the outcome is worker-count independent.
func (e *engine) stepNode(v, r int) {
	defer func() {
		if p := recover(); p != nil {
			e.crashMu.Lock()
			if e.crash == nil || v < e.crash.Node {
				e.crash = &CrashError{Node: v, Round: r, Phase: e.phaseName(), Panic: p}
			}
			e.crashMu.Unlock()
		}
	}()
	e.nodes[v].Round(&e.ctxs[v], r, e.inboxOf(v))
}

// forkWidth returns how many goroutines step a round of n nodes:
// min(Workers, GOMAXPROCS, nsPerNode·n/chunkNs), capped at n. Below 2 the
// round is serial.
func (e *engine) forkWidth(n int) int {
	w := e.procs
	if f := forced.Load(); f != nil {
		w = min(e.cfg.Workers, f.width, n)
		if w > 1 {
			f.forks.Add(1)
		}
		return w
	}
	if w > 1 {
		w = min(w, int(e.nsPerNode*int64(n)/chunkNs), n)
	}
	return w
}

// step runs one synchronous round over the given work list (all nodes under
// the dense scheduler, the active set otherwise): each listed node consumes
// its inbox and stages sends; the engine then validates and routes the
// sends into the next round's receive plane. Returns the number of
// messages sent this round and the number of nodes that sent.
//
// The node steps fork across goroutines only when the round's predicted
// work pays for the fork/join barrier (see forkWidth). The prediction is
// the previous executed round's node-step time per stepped node, measured
// on every round: a serial round times its loop; a forked round sums the
// time each worker spends on its own chunk, so fork and wake latency never
// feeds back into the estimate. Under a testing/synctest bubble the clock
// stands still, the estimate stays 0 and every round steps serially, which
// changes nothing observable: results do not depend on the worker count.
func (e *engine) step(r int, work []int, dense bool) (int, int, error) {
	if width := e.forkWidth(len(work)); width < 2 {
		var t0 time.Time
		if e.procs > 1 {
			t0 = time.Now()
		}
		for _, v := range work {
			e.stepNode(v, r)
		}
		if e.procs > 1 && len(work) > 0 {
			e.nsPerNode = int64(time.Since(t0)) / int64(len(work))
		}
	} else {
		// Shard the work list, not the ID space: active nodes cluster, and
		// a static lo..hi split over 0..n would leave most workers idle.
		// Every chunk runs on a spawned goroutine, none on this one: a
		// goroutine spawned before the caller stepped a chunk itself would
		// wait in this P's run-next slot until the caller blocked,
		// serialising the round.
		e.busy.Store(0)
		var wg sync.WaitGroup
		chunk := (len(work) + width - 1) / width
		for lo := 0; lo < len(work); lo += chunk {
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				t0 := time.Now()
				for _, v := range part {
					e.stepNode(v, r)
				}
				e.busy.Add(int64(time.Since(t0)))
			}(work[lo:min(lo+chunk, len(work))])
		}
		wg.Wait()
		e.nsPerNode = e.busy.Load() / int64(len(work))
	}
	if e.crash != nil {
		ce := e.crash
		e.crash = nil
		return 0, 0, ce
	}

	// Validate and count. Single-threaded: it touches the shared
	// congestion and destination planes. Senders are visited in ascending
	// node order (work is sorted); link indices were staged at send time,
	// so no adjacency search happens here.
	n := len(e.nodes)
	sent, active := 0, 0
	e.recvNext = e.recvNext[:0]
	for _, v := range work {
		ctx := &e.ctxs[v]
		if ctx.err != nil {
			return sent, active, fmt.Errorf("congest: node %d failed in round %d: %w", v, r, ctx.err)
		}
		out := ctx.out
		if len(out) == 0 {
			continue
		}
		// stamp = v*maxRounds+r would overflow; a (round, sender)-unique
		// stamp suffices since we check one sender's batch at a time.
		stamp := r*n + v
		base := e.sendOff[v]
		for i := range out {
			to := out[i].To
			li := ctx.li[i]
			if li < 0 {
				return sent, active, fmt.Errorf("congest: round %d: node %d sent to %d without a link", r, v, to)
			}
			if e.seenStamp[to] == stamp {
				return sent, active, fmt.Errorf("congest: round %d: node %d sent two messages on link to %d", r, v, to)
			}
			e.seenStamp[to] = stamp
			w := out[i].Payload.Words()
			if w > maxWordsPerMessage {
				return sent, active, fmt.Errorf("congest: round %d: node %d sent %d-word message to %d (bound %d)",
					r, v, w, to, maxWordsPerMessage)
			}
			if w > e.stats.MaxWords {
				e.stats.MaxWords = w
			}
			ll := base + li
			e.linkLoad[ll]++
			if int(e.linkLoad[ll]) > e.stats.MaxLinkCongestion {
				e.stats.MaxLinkCongestion = int(e.linkLoad[ll])
				if e.obs != nil {
					e.obs.LinkPeak(r, v, to, e.stats.MaxLinkCongestion)
				}
			}
			if e.net != nil {
				// Hand the message to the delivery substrate instead of the
				// built-in receive plane; the batch stays in canonical
				// order because work is sorted and out is send-ordered.
				e.netBatch = append(e.netBatch, out[i])
			} else if e.nxtLen[to] == 0 {
				e.nxtLen[to] = 1
				e.recvNext = append(e.recvNext, to)
			} else {
				e.nxtLen[to]++
			}
			sent++
		}
		active++
		if e.obs != nil {
			e.obs.NodeSends(r, v, len(out))
		}
		e.nodeSends[v] += len(out)
		if e.nodeSends[v] > e.stats.MaxNodeSends {
			e.stats.MaxNodeSends = e.nodeSends[v]
		}
	}
	e.stats.Messages += int64(sent)

	if e.net != nil {
		if len(e.netBatch) > 0 {
			if err := e.net.Send(r, e.netBatch); err != nil {
				return sent, active, fmt.Errorf("congest: network delivery failed in round %d: %w", r, err)
			}
			e.netBatch = e.netBatch[:0]
		}
		for _, v := range work {
			ctx := &e.ctxs[v]
			ctx.out = ctx.out[:0]
			ctx.li = ctx.li[:0]
		}
	} else if sent > 0 {
		// Carve the next round's receive plane: disjoint per-destination
		// regions sized by the counts above, then scatter in ascending
		// sender order — each destination's sub-slice is born sorted by
		// sender, the delivery order the Node contract promises.
		total := int32(0)
		for _, to := range e.recvNext {
			c := e.nxtLen[to]
			e.nxtEnd[to] = total
			total += c
		}
		if cap(e.recvNxt) < int(total) {
			e.recvNxt = make([]Message, total)
		} else {
			e.recvNxt = e.recvNxt[:total]
		}
		for _, v := range work {
			ctx := &e.ctxs[v]
			out := ctx.out
			for i := range out {
				to := out[i].To
				p := e.nxtEnd[to]
				e.recvNxt[p] = out[i]
				e.nxtEnd[to] = p + 1
			}
			ctx.out = out[:0]
			ctx.li = ctx.li[:0]
		}
	}

	// Refresh the cached quiescence of every stepped node and, for the
	// active scheduler, its next wake.
	for _, v := range work {
		q := e.nodes[v].Quiescent()
		if q != e.quiescent[v] {
			e.quiescent[v] = q
			if q {
				e.quiCount++
			} else {
				e.quiCount--
			}
		}
		// A node with messages already routed to it is stepped next round
		// regardless and re-armed after that step, so asking it for a wake
		// now is pure overhead. Any wake left armed from an earlier step
		// fires as a harmless extra step — the active set may exceed the
		// dense set's busy nodes, never undershoot it.
		if !dense && e.nxtLen[v] == 0 {
			e.arm(v, r)
		}
	}

	// Deliver: every inbox of this round was consumed, so retire its
	// cursors and swap in the next round's plane (already sorted by
	// sender). Every message scattered above is in the new plane, and
	// every destination will be stepped next round, so the inflight count
	// is exactly this round's send count.
	for _, v := range e.recvList {
		e.inLen[v] = 0
	}
	e.recvList = e.recvList[:0]
	if e.net != nil {
		// With a Network installed, round-(r+1) traffic is whatever the
		// substrate chooses to deliver (collectNet fills the plane at the
		// top of the next executed round); in-flight is what it has
		// accepted but not yet delivered — drops shrink it, delayed and
		// duplicated deliveries extend it beyond the next round.
		e.recvCur = e.recvCur[:0]
		e.inflight = e.net.Pending()
	} else {
		e.recvCur, e.recvNxt = e.recvNxt, e.recvCur
		e.inEnd, e.nxtEnd = e.nxtEnd, e.inEnd
		e.inLen, e.nxtLen = e.nxtLen, e.inLen
		e.recvList, e.recvNext = e.recvNext, e.recvList
		e.inflight = sent
	}
	return sent, active, nil
}
