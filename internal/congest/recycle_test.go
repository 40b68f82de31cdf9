// Recycling isolation: Run hands its planes to the next run on a
// same-shaped graph. Whatever the previous run left behind — an Init
// failure, an abort, a panic, a model violation, a cancellation, a
// checkpoint stop, a resume, a Network, the other scheduler — the next run
// must be exactly the run a freshly allocated engine makes: same Stats,
// same error, same Observer event stream (Elapsed excepted), the same
// nodes stepped in the same rounds, same final node state.
package congest_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

// eventLog records an Observer event stream with Elapsed zeroed. When
// cancel is set it fires at the end of round cancelAt.
type eventLog struct {
	events   []string
	cancelAt int
	cancel   context.CancelCauseFunc
}

func (l *eventLog) add(format string, args ...any) {
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

func (l *eventLog) RunStart(n int) { l.add("start %d", n) }
func (l *eventLog) RoundDone(e congest.RoundEvent) {
	e.Elapsed = 0
	l.add("round %+v", e)
	if l.cancel != nil && e.Round == l.cancelAt {
		l.cancel(errors.New("drill cancel"))
	}
}
func (l *eventLog) NodeSends(round, node, msgs int) { l.add("sends %d %d %d", round, node, msgs) }
func (l *eventLog) LinkPeak(round, from, to, load int) {
	l.add("peak %d %d->%d %d", round, from, to, load)
}
func (l *eventLog) RunDone(s congest.Stats) { l.add("done %+v", s) }

// cues are the faults a scenario injects at one node. A step cue fires on
// the node's k-th step, whichever round that falls in on the graph at hand.
type cues struct {
	node      int
	failInit  bool // fail in Init
	panicStep int  // panic on this step; 0: never
	breakStep int  // send twice on one link on this step; 0: never
	breakTo   int  // the neighbor the breakStep sends go to
}

// probe wraps a node: it logs the rounds the node is stepped in, fires the
// drill's cues at the cued node, and records the address of node 0's
// Context, which tells a recycled engine from a fresh one. NextWake is the
// wrapped node's, by embedding.
type probe struct {
	congest.Node
	v   int
	c   *cues
	out *outcome
}

func (p probe) Init(ctx *congest.Context) {
	if p.v == 0 {
		p.out.addr = fmt.Sprintf("%p", ctx)
	}
	p.Node.Init(ctx)
	if p.v == p.c.node && p.c.failInit {
		ctx.Fail(errors.New("init refused"))
	}
}

func (p probe) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	p.out.steps[p.v] = append(p.out.steps[p.v], r)
	if p.v == p.c.node {
		switch len(p.out.steps[p.v]) {
		case p.c.panicStep:
			panic("drill panic")
		case p.c.breakStep:
			ctx.Send(p.c.breakTo, intWord(1))
			ctx.Send(p.c.breakTo, intWord(2))
		}
	}
	p.Node.Round(ctx, r, inbox)
}

func (p probe) State(c *congest.Codec) error { return p.Node.(congest.Stateful).State(c) }

type intWord int64

func (intWord) Words() int { return 1 }

// outcome is everything a run is compared on.
type outcome struct {
	stats  congest.Stats
	err    string
	events []string
	steps  [][]int  // the rounds each node was stepped in
	nodes  [][]byte // each node's final state
	snap   []byte   // the snapshot a checkpoint stop delivered
	addr   string   // node 0's Context address
}

// protocol is a workload the sequence runs: Bellman–Ford keeps most nodes
// busy every round, the pipelined (h,k)-SSP with a large Δ wakes a few
// nodes in scattered rounds. abortAt is a round in the middle of its run.
type protocol struct {
	name    string
	mk      func(g *graph.Graph) func(v int) congest.Node
	abortAt int
}

func recycleProtocols() []protocol {
	sources := []int{0, 5}
	return []protocol{
		{"bellman", func(g *graph.Graph) func(v int) congest.Node {
			return bellman.NewNode(&bellman.Opts{Sources: sources, H: g.N() - 1})
		}, 5},
		{"pipelined", func(g *graph.Graph) func(v int) congest.Node {
			return core.NewNode(&core.Opts{Sources: sources, H: g.N() - 1, Delta: graph.Delta(g)})
		}, 100},
	}
}

// drill is one run's set-up, which a scenario adjusts: each run gets its
// own Config, Observer, cues, checkpoint policy and Network.
type drill struct {
	cfg     congest.Config
	log     *eventLog
	cues    cues
	abortAt int               // the protocol's mid-run round
	snap    *congest.Snapshot // the resume point
}

// scenario is one run of the sequence; wantErr is a substring of the error
// the run must end in ("" for none).
type scenario struct {
	name    string
	wantErr string
	setup   func(d *drill)
}

func recycleScenarios() []scenario {
	return []scenario{
		{"normal", "", func(*drill) {}},
		{"init-failure", "init refused", func(d *drill) { d.cues.failInit = true }},
		{"max-rounds", "MaxRounds", func(d *drill) { d.cfg.MaxRounds = d.abortAt }},
		{"panic", "drill panic", func(d *drill) { d.cues.panicStep = 5 }},
		{"model-violation", "two messages on link", func(d *drill) { d.cues.breakStep = 5 }},
		{"cancel", "drill cancel", func(d *drill) {
			var ctx context.Context
			ctx, d.log.cancel = context.WithCancelCause(context.Background())
			d.cfg.Ctx, d.log.cancelAt = ctx, d.abortAt
		}},
		{"checkpoint-stop", "stopped at checkpoint", func(d *drill) {
			d.cfg.Checkpoint = &congest.CheckpointPolicy{AtRound: d.abortAt}
		}},
		{"resume", "", func(d *drill) { d.cfg.Checkpoint = &congest.CheckpointPolicy{Resume: d.snap} }},
		{"network", "", func(d *drill) {
			d.cfg.Network = faults.New(faults.Plan{Seed: 3, MaxDelay: 2, Drop: 0.2, Dup: 0.1})
		}},
		{"dense", "", func(d *drill) { d.cfg.Scheduler = congest.SchedulerDense }},
		{"dense-again", "", func(d *drill) { d.cfg.Scheduler = congest.SchedulerDense }},
		{"active-again", "", func(*drill) {}},
	}
}

// runScenario runs sc of protocol p on g through run (congest.Run or
// congest.RunFresh). snap is the resume point for the "resume" scenario.
func runScenario(t *testing.T, run func(*graph.Graph, func(int) congest.Node, congest.Config) (congest.Stats, error),
	g *graph.Graph, p protocol, sc scenario, snap *congest.Snapshot) outcome {
	t.Helper()
	out := outcome{steps: make([][]int, g.N())}
	d := &drill{log: &eventLog{}, cues: cues{node: 3, breakTo: g.CommNeighbors(3)[0]}, abortAt: p.abortAt, snap: snap}
	d.cfg = congest.Config{Observer: d.log, Workers: 1}
	sc.setup(d)
	if d.cfg.Checkpoint != nil && d.cfg.Checkpoint.Resume == nil {
		d.cfg.Checkpoint.Sink = func(s *congest.Snapshot) error {
			raw, err := s.MarshalBinary()
			out.snap = raw
			return err
		}
	}
	mk := p.mk(g)
	nodes := make([]congest.Node, g.N())
	stats, err := run(g, func(v int) congest.Node {
		nodes[v] = mk(v)
		return probe{Node: nodes[v], v: v, c: &d.cues, out: &out}
	}, d.cfg)
	out.stats, out.events = stats, d.log.events
	if err != nil {
		out.err = err.Error()
	}
	for _, nd := range nodes {
		raw, err := congest.Marshal(nd.(congest.Stateful))
		if err != nil {
			t.Errorf("%s/%s: node state: %v", p.name, sc.name, err)
		}
		out.nodes = append(out.nodes, raw)
	}
	return out
}

// stride2Regular builds a 2-regular graph on n nodes whose cycle steps by
// stride: every stride coprime to n gives the same degree sequence and a
// different adjacency.
func stride2Regular(n, stride int) *graph.Graph {
	g := graph.New(n, false)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+stride)%n, int64(1+(v*37)%200))
	}
	return g
}

// recycleGraphs returns a graph and its same-degree-sequence twin.
func recycleGraphs() []*graph.Graph {
	return []*graph.Graph{stride2Regular(24, 1), stride2Regular(24, 5)}
}

func decodeSnap(t *testing.T, raw []byte) *congest.Snapshot {
	t.Helper()
	s := &congest.Snapshot{}
	if err := s.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	return s
}

func compareOutcome(t *testing.T, label string, got, want outcome) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, fresh engine %+v", label, got.stats, want.stats)
	}
	if got.err != want.err {
		t.Errorf("%s: error %q, fresh engine %q", label, got.err, want.err)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: observer stream differs from the fresh engine's (%d vs %d events)", label, len(got.events), len(want.events))
	}
	if !reflect.DeepEqual(got.steps, want.steps) {
		t.Errorf("%s: nodes were stepped in other rounds than on the fresh engine", label)
	}
	if !reflect.DeepEqual(got.nodes, want.nodes) {
		t.Errorf("%s: final node state differs from the fresh engine's", label)
	}
	if !reflect.DeepEqual(got.snap, want.snap) {
		t.Errorf("%s: checkpoint snapshot differs from the fresh engine's", label)
	}
}

// TestRecycledRunsMatchFresh runs the scenario sequence back to back and
// compares each run with its fresh-engine reference. Each scenario runs
// twice on a graph, so a repeat inherits the planes of the very run it
// repeats (stale wake rounds coincide with live ones), then on the twin,
// whose adjacency differs under the same degree sequence.
func TestRecycledRunsMatchFresh(t *testing.T) {
	gs := recycleGraphs()
	for _, p := range recycleProtocols() {
		t.Run(p.name, func(t *testing.T) {
			ref := make([][]outcome, len(gs))
			for gi, g := range gs {
				var snap *congest.Snapshot
				for _, sc := range recycleScenarios() {
					want := runScenario(t, congest.RunFresh, g, p, sc, snap)
					if (want.err == "") != (sc.wantErr == "") || !strings.Contains(want.err, sc.wantErr) {
						t.Fatalf("%s on graph %d: fresh engine's error %q does not exercise the scenario", sc.name, gi, want.err)
					}
					if want.snap != nil {
						snap = decodeSnap(t, want.snap)
					}
					ref[gi] = append(ref[gi], want)
				}
			}
			reused, prev := 0, ""
			snaps := make([]*congest.Snapshot, len(gs))
			for i, sc := range recycleScenarios() {
				for _, gi := range []int{0, 0, 1} {
					got := runScenario(t, congest.Run, gs[gi], p, sc, snaps[gi])
					compareOutcome(t, fmt.Sprintf("%s on graph %d", sc.name, gi), got, ref[gi][i])
					if got.snap != nil {
						snaps[gi] = decodeSnap(t, got.snap)
					}
					if got.addr == prev {
						reused++
					}
					prev = got.addr
				}
			}
			if reused == 0 {
				t.Fatal("no run reused its predecessor's planes: the sequence never exercised recycling")
			}
		})
	}
}

// TestRecycledRunsConcurrent runs one graph's normal scenario from eight
// goroutines at once, so engines pass between runs on different
// goroutines; under -race this is the pool's data-race check.
func TestRecycledRunsConcurrent(t *testing.T) {
	g := recycleGraphs()[0]
	p, sc := recycleProtocols()[0], recycleScenarios()[0]
	want := runScenario(t, congest.RunFresh, g, p, sc, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := runScenario(t, congest.Run, g, p, sc, nil)
				got.addr = want.addr
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent run %d differs from the fresh engine's", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
