package congest

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// intPayload is a one-word test payload.
type intPayload int

func (intPayload) Words() int { return 1 }

// floodNode implements unweighted BFS flooding from node 0: on first
// learning its distance it broadcasts distance+1.
type floodNode struct {
	id    int
	dist  int
	fresh bool
}

func newFlood(v int) Node { return &floodNode{id: v, dist: -1} }

func (f *floodNode) Init(ctx *Context) {
	if f.id == 0 {
		f.dist = 0
		f.fresh = true
	}
}

func (f *floodNode) Round(ctx *Context, r int, inbox []Message) {
	for _, m := range inbox {
		d := int(m.Payload.(intPayload))
		if f.dist < 0 || d < f.dist {
			f.dist = d
			f.fresh = true
		}
	}
	if f.fresh {
		ctx.Broadcast(intPayload(f.dist + 1))
		f.fresh = false
	}
}

func (f *floodNode) Quiescent() bool { return !f.fresh }
func (f *floodNode) NextWake() int   { return everyRound(f.Quiescent()) }

// everyRound is the NextWake of a test node without a send schedule: it is
// stepped every round until it is quiescent, and then only on a receive.
func everyRound(quiescent bool) int {
	if quiescent {
		return WakeOnReceive
	}
	return 0
}

func TestFloodBFSOnPath(t *testing.T) {
	g := graph.Path(6, graph.GenOpts{Seed: 1, MaxW: 1})
	nodes := make([]*floodNode, g.N())
	stats, err := Run(g, func(v int) Node {
		nodes[v] = newFlood(v).(*floodNode)
		return nodes[v]
	}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v, nd := range nodes {
		if nd.dist != v {
			t.Fatalf("BFS dist at %d = %d, want %d", v, nd.dist, v)
		}
	}
	// Node 0 broadcasts in round 1; node 4 (dist 4) broadcasts in round 5,
	// reaching node 5. The last send happens in round 5... node 5 also
	// broadcasts once after learning its distance, in round 6.
	if stats.Rounds != 6 {
		t.Fatalf("Rounds = %d, want 6", stats.Rounds)
	}
	if stats.MaxWords != 1 {
		t.Fatalf("MaxWords = %d", stats.MaxWords)
	}
}

func TestFloodBFSMatchesHopDistanceOnRandom(t *testing.T) {
	g := graph.Random(40, 120, graph.GenOpts{Seed: 5, MaxW: 3})
	hop := graph.HHopDistances(g.Transform(func(int64) int64 { return 1 }), 0, g.N())
	nodes := make([]*floodNode, g.N())
	if _, err := Run(g, func(v int) Node {
		nodes[v] = newFlood(v).(*floodNode)
		return nodes[v]
	}, Config{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v := range nodes {
		if int64(nodes[v].dist) != hop[v] {
			t.Fatalf("flood dist at %d = %d, want %d", v, nodes[v].dist, hop[v])
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := graph.Random(60, 200, graph.GenOpts{Seed: 9, MaxW: 3})
	run := func(workers int) ([]int, Stats) {
		nodes := make([]*floodNode, g.N())
		stats, err := Run(g, func(v int) Node {
			nodes[v] = newFlood(v).(*floodNode)
			return nodes[v]
		}, Config{Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		out := make([]int, g.N())
		for v := range nodes {
			out[v] = nodes[v].dist
		}
		return out, stats
	}
	d1, s1 := run(1)
	stop := ForceFork(4)
	d8, s8 := run(8)
	if forks := stop(); forks == 0 {
		t.Fatal("no round forked: the parallel path went untested")
	}
	for v := range d1 {
		if d1[v] != d8[v] {
			t.Fatalf("worker-count changed result at node %d: %d vs %d", v, d1[v], d8[v])
		}
	}
	if s1 != s8 {
		t.Fatalf("worker-count changed stats: %+v vs %+v", s1, s8)
	}
}

// violator sends a bogus message per the selected mode.
type violator struct {
	id   int
	mode string
	done bool
}

func (x *violator) Init(*Context) {}
func (x *violator) Round(ctx *Context, r int, inbox []Message) {
	if x.done || x.id != 0 {
		x.done = true
		return
	}
	x.done = true
	switch x.mode {
	case "nolink":
		ctx.Send(2, intPayload(1)) // 0 and 2 are not adjacent on a path
	case "double":
		ctx.Send(1, intPayload(1))
		ctx.Send(1, intPayload(2))
	case "fat":
		ctx.Send(1, fatPayload{})
	case "fail":
		ctx.Failf("synthetic failure")
	}
}
func (x *violator) Quiescent() bool { return x.done }
func (x *violator) NextWake() int   { return everyRound(x.Quiescent()) }

type fatPayload struct{}

func (fatPayload) Words() int { return 99 }

func TestProtocolViolations(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 1})
	for _, mode := range []string{"nolink", "double", "fat", "fail"} {
		_, err := Run(g, func(v int) Node { return &violator{id: v, mode: mode} }, Config{})
		if err == nil {
			t.Errorf("mode %q: Run succeeded, want protocol error", mode)
		}
	}
}

// chatterer never quiesces.
type chatterer struct{ id int }

func (c *chatterer) Init(*Context) {}
func (c *chatterer) Round(ctx *Context, r int, inbox []Message) {
	if c.id == 0 {
		ctx.Send(1, intPayload(r))
	}
}
func (c *chatterer) Quiescent() bool { return false }
func (c *chatterer) NextWake() int   { return everyRound(c.Quiescent()) }

func TestMaxRoundsEnforced(t *testing.T) {
	g := graph.Path(2, graph.GenOpts{Seed: 1, MaxW: 1})
	_, err := Run(g, func(v int) Node { return &chatterer{id: v} }, Config{MaxRounds: 50})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestLinkCongestionCounted(t *testing.T) {
	g := graph.Path(2, graph.GenOpts{Seed: 1, MaxW: 1})
	// Node 0 sends 7 messages to node 1 over 7 rounds.
	type sender struct {
		chatterer
		budget *int
	}
	budget := 7
	nodes := func(v int) Node {
		if v == 0 {
			return nodeFunc{
				round: func(ctx *Context, r int, inbox []Message) {
					if budget > 0 {
						ctx.Send(1, intPayload(r))
						budget--
					}
				},
				quiescent: func() bool { return budget == 0 },
			}
		}
		return nodeFunc{round: func(*Context, int, []Message) {}, quiescent: func() bool { return true }}
	}
	_ = sender{}
	stats, err := Run(g, nodes, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.MaxLinkCongestion != 7 {
		t.Fatalf("MaxLinkCongestion = %d, want 7", stats.MaxLinkCongestion)
	}
	if stats.Rounds != 7 || stats.Messages != 7 {
		t.Fatalf("stats = %+v", stats)
	}
}

// nodeFunc adapts closures to the Node interface for tests.
type nodeFunc struct {
	init      func(*Context)
	round     func(*Context, int, []Message)
	quiescent func() bool
}

func (n nodeFunc) Init(ctx *Context) {
	if n.init != nil {
		n.init(ctx)
	}
}
func (n nodeFunc) Round(ctx *Context, r int, inbox []Message) { n.round(ctx, r, inbox) }
func (n nodeFunc) Quiescent() bool                            { return n.quiescent() }
func (n nodeFunc) NextWake() int                              { return everyRound(n.quiescent()) }

func TestNoSendsAtAllIsZeroRounds(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 1})
	stats, err := Run(g, func(v int) Node {
		return nodeFunc{round: func(*Context, int, []Message) {}, quiescent: func() bool { return true }}
	}, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Fatalf("stats = %+v, want zero activity", stats)
	}
}

func TestInitMayNotSend(t *testing.T) {
	g := graph.Path(2, graph.GenOpts{Seed: 1, MaxW: 1})
	_, err := Run(g, func(v int) Node {
		return nodeFunc{
			init:      func(ctx *Context) { ctx.Send(1-v, intPayload(0)) },
			round:     func(*Context, int, []Message) {},
			quiescent: func() bool { return true },
		}
	}, Config{})
	if err == nil {
		t.Fatal("Init send accepted, want error (round 0 has no sends)")
	}
}

func TestRoundFuncObserved(t *testing.T) {
	g := graph.Path(4, graph.GenOpts{Seed: 1, MaxW: 1})
	var timeline []int
	_, err := Run(g, newFlood, Config{Observer: RoundFunc(func(r, msgs int) {
		timeline = append(timeline, msgs)
	})})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(timeline) == 0 || timeline[0] == 0 {
		t.Fatalf("timeline = %v, want sends observed from round 1", timeline)
	}
}

// recordingObserver captures the full event stream for assertions.
type recordingObserver struct {
	n         int
	rounds    []RoundEvent
	nodeSends map[int]int
	peaks     []int
	done      bool
	doneStats Stats
}

func (o *recordingObserver) RunStart(n int)         { o.n = n }
func (o *recordingObserver) RoundDone(e RoundEvent) { o.rounds = append(o.rounds, e) }
func (o *recordingObserver) NodeSends(round, node, msgs int) {
	if o.nodeSends == nil {
		o.nodeSends = make(map[int]int)
	}
	o.nodeSends[node] += msgs
}
func (o *recordingObserver) LinkPeak(round, from, to, load int) { o.peaks = append(o.peaks, load) }
func (o *recordingObserver) RunDone(s Stats)                    { o.done = true; o.doneStats = s }

// TestObserverSeesEveryRound asserts that RoundDone fires for every executed
// round — in particular the final quiescing round, which carries no traffic
// and therefore lies beyond Stats.Rounds.
func TestObserverSeesEveryRound(t *testing.T) {
	g := graph.Path(6, graph.GenOpts{Seed: 1, MaxW: 1})
	var o recordingObserver
	stats, err := Run(g, newFlood, Config{Observer: &o})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if o.n != g.N() {
		t.Fatalf("RunStart n = %d, want %d", o.n, g.N())
	}
	for i, e := range o.rounds {
		if e.Round != i+1 {
			t.Fatalf("round events not contiguous: event %d has Round %d", i, e.Round)
		}
	}
	// Flooding quiesces one round after the last send: the engine must
	// still report that quiet round.
	if len(o.rounds) != stats.Rounds+1 {
		t.Fatalf("observed %d rounds, want %d (Stats.Rounds %d + final quiescing round)",
			len(o.rounds), stats.Rounds+1, stats.Rounds)
	}
	last := o.rounds[len(o.rounds)-1]
	if last.Sent != 0 || last.Active != 0 {
		t.Fatalf("final quiescing round reported traffic: %+v", last)
	}
	var total, active int
	for _, e := range o.rounds {
		total += e.Sent
		if e.Active > 0 {
			active++
		}
	}
	if int64(total) != stats.Messages {
		t.Fatalf("observer counted %d messages, stats %d", total, stats.Messages)
	}
	var nodeTotal int
	for _, c := range o.nodeSends {
		nodeTotal += c
	}
	if int64(nodeTotal) != stats.Messages {
		t.Fatalf("NodeSends total %d != stats messages %d", nodeTotal, stats.Messages)
	}
	if len(o.peaks) == 0 || o.peaks[len(o.peaks)-1] != stats.MaxLinkCongestion {
		t.Fatalf("LinkPeak samples %v, want last == MaxLinkCongestion %d", o.peaks, stats.MaxLinkCongestion)
	}
	if !o.done || o.doneStats != stats {
		t.Fatalf("RunDone stats %+v, want %+v", o.doneStats, stats)
	}
}

// TestObserverRunDoneOnError asserts RunDone fires even when the run aborts.
func TestObserverRunDoneOnError(t *testing.T) {
	g := graph.Path(2, graph.GenOpts{Seed: 1, MaxW: 1})
	var o recordingObserver
	_, err := Run(g, func(v int) Node {
		return nodeFunc{
			init: func(*Context) {},
			round: func(ctx *Context, r int, _ []Message) {
				ctx.Failf("boom")
			},
			quiescent: func() bool { return false },
		}
	}, Config{Observer: &o})
	if err == nil {
		t.Fatal("want error")
	}
	if !o.done {
		t.Fatal("RunDone did not fire on the error path")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rounds: 10, Messages: 100, MaxWords: 2, MaxLinkCongestion: 3, MaxNodeSends: 9}
	b := Stats{Rounds: 5, Messages: 50, MaxWords: 4, MaxLinkCongestion: 1, MaxNodeSends: 12}
	a.Add(b)
	if a.Rounds != 15 || a.Messages != 150 || a.MaxWords != 4 || a.MaxLinkCongestion != 3 || a.MaxNodeSends != 12 {
		t.Fatalf("Add = %+v", a)
	}
}

func TestMaxNodeSendsCounted(t *testing.T) {
	// Star: the center relays, leaves speak once. The center's broadcast
	// (degree 4) dominates MaxNodeSends.
	g := graph.New(5, false)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v, 1)
	}
	stats, err := Run(g, newFlood, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.MaxNodeSends != 4 {
		t.Fatalf("MaxNodeSends = %d, want 4 (the center's single broadcast)", stats.MaxNodeSends)
	}
}

func TestCustomBandwidth(t *testing.T) {
	// The bound rejects a 9-word payload.
	g := graph.Path(2, graph.GenOpts{Seed: 1, MaxW: 1})
	_, err := Run(g, func(v int) Node {
		sent := false
		return nodeFunc{
			round: func(ctx *Context, r int, inbox []Message) {
				if v == 0 && !sent {
					ctx.Send(1, wideload{})
					sent = true
				}
			},
			quiescent: func() bool { return v != 0 || sent },
		}
	}, Config{})
	if err == nil {
		t.Fatal("the bound accepted 9 words")
	}
}

type wideload struct{}

func (wideload) Words() int { return 9 }

func TestWorkersExceedingNodes(t *testing.T) {
	g := graph.Path(3, graph.GenOpts{Seed: 1, MaxW: 1})
	if _, err := Run(g, newFlood, Config{Workers: 64}); err != nil {
		t.Fatalf("Workers > n failed: %v", err)
	}
}

func TestInboxSortedBySender(t *testing.T) {
	// Star: center 0 linked to 1..4; all leaves send to 0 in round 1;
	// the center checks sender order in round 2.
	g := graph.New(5, false)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v, 1)
	}
	var got []int
	okDone := false
	_, err := Run(g, func(v int) Node {
		if v == 0 {
			return nodeFunc{
				round: func(ctx *Context, r int, inbox []Message) {
					if r == 2 {
						for _, m := range inbox {
							got = append(got, m.From)
						}
						okDone = true
					}
				},
				quiescent: func() bool { return okDone },
			}
		}
		sent := false
		return nodeFunc{
			round: func(ctx *Context, r int, inbox []Message) {
				if !sent {
					ctx.Send(0, intPayload(v))
					sent = true
				}
			},
			quiescent: func() bool { return sent },
		}
	}, Config{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	if len(got) != 4 {
		t.Fatalf("inbox = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inbox order = %v, want %v", got, want)
		}
	}
}
