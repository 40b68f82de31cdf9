package apsp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cssp"
	"repro/internal/difftest"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/obs"
	"repro/internal/posweight"
	"repro/internal/scaling"
	"repro/internal/shortrange"
	"repro/internal/unweighted"
)

// The engine-environment conformance gate. The paper's network is
// deterministic and synchronous, so every environment (scheduler, fault plan,
// kill and resume) must reproduce a run bit-exactly: the whole Result and the
// observer stream. A divergence means a NextWake lies, a state walk drops a
// field or the fault shim breaks synchrony: a bug, never an accepted change.

// familyRow is one protocol family of the conformance table.
type familyRow struct {
	name string
	// run returns the family's whole Result on one instance and environment.
	run func(in difftest.Instance, cfg congest.Config) (any, error)
	// space is the delivery sweep's scheduler group, its first faultSeeds seeds
	// per size the faults group. extra joins both groups, large the first.
	space        difftest.Space
	faultSeeds   int64
	extra, large []difftest.Instance
	// ckpt and probes are the checkpoint sweep's instances and kill points;
	// unreliable adds cells under ckptPlan on a difftest.Unreliable network.
	ckpt       []difftest.Instance
	probes     []ckptProbe
	unreliable bool
	// sssp, when set, extracts the baseline distances difftest.SSSPOracle checks.
	sssp func(res any) [][]int64
}

// ckptProbe is one (engine run index, checkpoint round) kill point.
type ckptProbe struct{ run, round int }

// probeGrid is every kill point up to round rounds of engine runs first to
// last: dense, as a dropped state field shows only where it is live.
func probeGrid(first, last, rounds int) (ps []ckptProbe) {
	for r := first; r <= last; r++ {
		for k := 1; k <= rounds; k++ {
			ps = append(ps, ckptProbe{r, k})
		}
	}
	return ps
}

func familyRows() []familyRow {
	single, multi := probeGrid(0, 0, 32), probeGrid(0, 3, 5)
	small := func(seed int64) []difftest.Instance {
		g := graph.Random(14, 42, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.2, Directed: true})
		return []difftest.Instance{{G: g, Sources: []int{0, 7, 13}, Seed: seed}} // H 0: hssp picks h
	}
	step4 := small(6)[0]
	step4.H = 2
	posIn := ckptInstance(4) // zero weights: posweight sends late (lenient) or misses (strict)
	posweightRun := func(strict bool) func(difftest.Instance, congest.Config) (any, error) {
		return func(in difftest.Instance, cfg congest.Config) (any, error) {
			return posweight.Run(in.G, posweight.Opts{Sources: in.Sources, Strict: strict, Engine: cfg})
		}
	}
	allPairs := func(n int, seed int64, h int) difftest.Instance {
		g := graph.Random(n, 4*n, graph.GenOpts{Seed: seed, MaxW: 8, ZeroFrac: 0.2, Directed: true})
		return difftest.Instance{G: g, H: h, Seed: seed}
	}
	return []familyRow{{
		name: "Core", space: difftest.Space{SeedsPerSize: 8}, faultSeeds: 3,
		ckpt: []difftest.Instance{ckptInstance(3), ckptInstance(11)}, probes: single, unreliable: true,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, SnapshotRounds: []int{2, 5}, Engine: cfg})
		},
	}, {
		// The paper's literal list rules lose h-hop distances (core.Literal),
		// but deterministically: every environment must agree on what they
		// compute. They are Z.ν's only reader.
		name: "CoreLiteral", space: difftest.Space{SeedsPerSize: 2}, faultSeeds: 1,
		ckpt: []difftest.Instance{ckptInstance(3)}, probes: single,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return core.RunLiteral(in.G, core.Opts{Sources: in.Sources, H: in.H, Engine: cfg}, core.Literal{})
		},
	}, {
		// Lenient posweight is correct unrestricted SSSP. Strict mode is the
		// literature's rule that zero weights break (the paper's Sec. II
		// motivation), so only its environments must agree.
		name: "PosweightLenient", space: difftest.Space{SeedsPerSize: 8, ZeroFrac: -1}, faultSeeds: 3,
		ckpt: []difftest.Instance{posIn}, probes: single, run: posweightRun(false),
		sssp: func(res any) [][]int64 { return res.(*posweight.Result).Dist },
	}, {
		name: "PosweightStrict", space: difftest.Space{SeedsPerSize: 8, ZeroFrac: -1}, faultSeeds: 3,
		ckpt: []difftest.Instance{posIn}, probes: single, run: posweightRun(true),
	}, {
		name: "Unweighted", space: difftest.Space{SeedsPerSize: 3}, faultSeeds: 3, ckpt: []difftest.Instance{ckptInstance(5)}, probes: single,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return unweighted.KSource(in.G, in.Sources, cfg)
		},
	}, {
		name: "Bellman", space: difftest.Space{SeedsPerSize: 8}, faultSeeds: 3, ckpt: []difftest.Instance{ckptInstance(6)}, probes: single,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return bellman.Run(in.G, bellman.Opts{Sources: in.Sources, H: in.H, Engine: cfg})
		},
	}, {
		name: "ShortRange", space: difftest.Space{SeedsPerSize: 8}, faultSeeds: 3, ckpt: []difftest.Instance{ckptInstance(7)}, probes: single,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return shortrange.Run(in.G, shortrange.Opts{Sources: in.Sources, H: in.H, Engine: cfg})
		},
	}, {
		name: "Scaling", space: difftest.Space{SeedsPerSize: 6}, faultSeeds: 2, ckpt: []difftest.Instance{ckptInstance(8)}, probes: multi,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return scaling.Run(in.G, scaling.Opts{Sources: in.Sources, Engine: cfg})
		},
		sssp: func(res any) [][]int64 { return res.(*scaling.Result).Dist },
	}, {
		// The whole pipeline (cssp → blocker → per-blocker SSSP → broadcast).
		// H = 0 lets hssp choose h; H = 4 has a non-empty blocker set Q.
		// Both checkpoint instances are killed in runs 4–8: the tree BFS,
		// the claim, the convergecast, the pipelined broadcast and the
		// score update of the first blocker pick. The H = 2 instance
		// (|Q| = 2) re-selects a parent (run 1 lasts 5 rounds) and ends in
		// Step 4's gather (run 19, 4 rounds) and the broadcast every node
		// folds into its row (run 20, 9 rounds): both are killed at every
		// round.
		name: "BlockerAPSP", space: difftest.Space{SeedsPerSize: 2, H: -1}, faultSeeds: 2,
		extra: []difftest.Instance{allPairs(32, 11, 0)},
		large: []difftest.Instance{allPairs(64, 7, 0), allPairs(64, 7, 4)},
		ckpt:  append(small(9), step4), probes: slices.Concat(multi, probeGrid(4, 8, 4), probeGrid(19, 20, 9)),
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return hssp.Run(in.G, hssp.Opts{Sources: in.Sources, H: in.H, Engine: cfg})
		},
	}, {
		// Build alone, killed in its parent re-selection run on a graph
		// where the re-selection cascades (cascadeGraph).
		name: "CSSSP", space: difftest.Space{SeedsPerSize: 2}, faultSeeds: 1,
		ckpt: []difftest.Instance{{G: cascadeGraph(), Sources: []int{0, 1}, H: 3}}, probes: probeGrid(1, 1, 6),
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return cssp.Build(in.G, in.Sources, in.H, 0, cfg)
		},
	}, {
		name: "Approx", space: difftest.Space{SeedsPerSize: 2}, faultSeeds: 2, ckpt: small(10), probes: multi,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return approx.Run(in.G, approx.Opts{Sources: in.Sources, Eps: 0.5, Engine: cfg})
		},
	}}
}

// cascadeGraph is a 15-node graph on which cssp.Build(sources {0, 1},
// h = 3) re-selects in a cascade. Each source s reaches node 2 by one arc
// of weight 10 and by a 6-arc chain of weight 6, so 2's best record is
// the 6-hop one, which h truncates. Node 3 (behind 2) keeps its 2-hop
// record but loses its only candidate and invalidates both sources, one
// per round; node 4 (behind 3) then invalidates both in turn. Kills in
// the re-selection run find invalidations in flight and one queued.
func cascadeGraph() *graph.Graph {
	g := graph.New(15, true)
	arc := func(u, v int, w int64) {
		if err := g.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	}
	for s, chain := range []int{5, 10} {
		arc(s, 2, 10)
		prev := s
		for v := chain; v < chain+5; v++ {
			arc(prev, v, 1)
			prev = v
		}
		arc(prev, 2, 1)
	}
	arc(2, 3, 1)
	arc(3, 4, 1)
	return g
}

// ckptInstance is the checkpoint sweeps' 20-node instance.
func ckptInstance(seed int64) difftest.Instance {
	g := graph.Random(20, 60, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.2, Directed: true})
	return difftest.Instance{G: g, Sources: []int{0, 7, 13}, H: 6, Seed: seed}
}

// faultSweepPlans are the faults group's network columns.
func faultSweepPlans(seed int64) []*faults.Plan {
	all := faults.All(seed)
	return []*faults.Plan{
		&all,                      // everything at once
		{Seed: seed},              // shim engaged, perfect wire
		{Seed: seed, MaxDelay: 4}, // delay only
		{Seed: seed, Drop: 0.2},   // drop + retransmit
		{Seed: seed, Dup: 0.3},    // duplication
	}
}

func netOf(p *faults.Plan) congest.Network {
	if p == nil {
		return nil
	}
	return faults.New(*p)
}

var schedulers = []congest.Scheduler{congest.SchedulerDense, congest.SchedulerActive}

// stream records the observer events every environment must reproduce, in
// emission order, each as its kind (0 RunStart, 1 RoundDone with Elapsed
// dropped, 2 NodeSends, 3 LinkPeak) followed by its arguments.
type stream [][5]int

func (s *stream) RunStart(n int) { *s = append(*s, [5]int{0, n}) }
func (s *stream) RoundDone(e congest.RoundEvent) {
	*s = append(*s, [5]int{1, e.Round, e.Sent, e.Active})
}
func (s *stream) NodeSends(r, v, m int)          { *s = append(*s, [5]int{2, r, v, m}) }
func (s *stream) LinkPeak(r, from, to, load int) { *s = append(*s, [5]int{3, r, from, to, load}) }
func (s *stream) RunDone(congest.Stats)          {}

// after returns the events that follow engine run k's RunStart.
func (s stream) after(k int) stream {
	for i := range s {
		if s[i][0] == 0 {
			if k--; k < 0 {
				return s[i+1:]
			}
		}
	}
	return nil
}

// outcome is everything a cell is compared on.
type outcome struct {
	res    any
	err    error
	events stream
	rec    *recording     // faulty checkpoint cells only
	faults []faults.Event // unreliable checkpoint cells only: the plan's recorded faults
}

func (f familyRow) exec(in difftest.Instance, cfg congest.Config) (o outcome) {
	cfg.Observer = &o.events
	o.res, o.err = f.run(in, cfg)
	return o
}

// diverges reports how o differs from the baseline: the error text (both
// failing alike is conformance too), the first differing Result field, or
// the first differing observer event.
func (o outcome) diverges(base outcome) error {
	if fmt.Sprint(o.err) != fmt.Sprint(base.err) {
		return fmt.Errorf("error %v, baseline %v", o.err, base.err)
	}
	if o.err == nil && !reflect.DeepEqual(o.res, base.res) {
		got, want := reflect.ValueOf(o.res).Elem(), reflect.ValueOf(base.res).Elem()
		for i := range got.NumField() {
			if g, w := got.Field(i).Interface(), want.Field(i).Interface(); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("Result.%s diverges: %.300v, baseline %.300v",
					got.Type().Field(i).Name, fmt.Sprint(g), fmt.Sprint(w))
			}
		}
	}
	for i := range min(len(o.events), len(base.events)) {
		if o.events[i] != base.events[i] {
			return fmt.Errorf("observer event %d is %v, baseline %v", i, o.events[i], base.events[i])
		}
	}
	if len(o.events) != len(base.events) {
		return fmt.Errorf("%d observer events, baseline %d", len(o.events), len(base.events))
	}
	if !slices.Equal(o.faults, base.faults) {
		return fmt.Errorf("recorded faults %v, baseline %v", o.faults, base.faults)
	}
	return nil
}

// delivery runs one instance's cells of one group against its dense run.
func (f familyRow) delivery(in difftest.Instance, faulty bool) error {
	base := f.exec(in, congest.Config{Scheduler: congest.SchedulerDense})
	if base.err == nil && f.sssp != nil {
		if err := difftest.SSSPOracle(in, f.sssp(base.res)); err != nil {
			return fmt.Errorf("fault-free dense baseline vs reference: %w", err)
		}
	}
	plans := []*faults.Plan{nil}
	if faulty {
		plans = faultSweepPlans(in.Seed + 1)
	}
	for _, sched := range schedulers {
		for _, plan := range plans {
			if sched == congest.SchedulerDense && plan == nil {
				continue // the baseline itself
			}
			got := f.exec(in, congest.Config{Scheduler: sched, Network: netOf(plan)})
			if err := got.diverges(base); err != nil {
				return fmt.Errorf("sched=%v plan=%v: %w", sched, plan, err)
			}
		}
	}
	return nil
}

// named runs check on each instance as its own subtest.
func named(t *testing.T, ins []difftest.Instance, check difftest.Check) {
	for _, in := range ins {
		t.Run(fmt.Sprintf("n=%d_seed=%d_H=%d", in.G.N(), in.Seed, in.H), func(t *testing.T) {
			if err := check(in); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeliveryConformance runs every family in two groups of cells, each
// compared with the fault-free dense run: "scheduler" is active without a
// network, "faults" both schedulers under the six internal/faults plans.
func TestDeliveryConformance(t *testing.T) {
	for _, f := range familyRows() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			for _, group := range []string{"scheduler", "faults"} {
				space, ins := f.space, append(f.extra, f.large...)
				if group == "faults" {
					space.SeedsPerSize, ins = f.faultSeeds, f.extra
				}
				t.Run(group, func(t *testing.T) {
					check := func(in difftest.Instance) error { return f.delivery(in, group == "faults") }
					difftest.Search(t, space, check)
					named(t, ins, check)
				})
			}
		})
	}
}

// ckptCell is one kill point of the checkpoint sweep: a probe on one
// network. A snapshot holds no scheduler state, so a cell has no scheduler.
type ckptCell struct {
	net ckptNet
	pr  ckptProbe
}

// ckptNet is a checkpoint cell's network column.
type ckptNet int

const (
	netPerfect    ckptNet = iota // no network
	netFaulty                    // ckptPlan, with an obs.Recorder observing
	netUnreliable                // ckptPlan on difftest.Unreliable: synchrony broken on purpose
)

// ckptPlan is the faulty and unreliable cells' plan: every fault at once.
var ckptPlan = faults.All(41)

func (f familyRow) ckptCells() (cs []ckptCell) {
	nets := []ckptNet{netPerfect, netFaulty}
	if f.unreliable {
		nets = append(nets, netUnreliable)
	}
	for _, net := range nets {
		for _, pr := range f.probes {
			cs = append(cs, ckptCell{net, pr})
		}
	}
	return cs
}

// ckptBases are one checkpoint instance's uninterrupted runs. Perfect and
// faulty cells must reproduce the fault-free dense run's Result and
// observer stream; faulty cells must also reproduce the faulty run's
// Recorder, and unreliable cells the whole unreliable run. Each scheduler
// runs the faulty and the unreliable baseline, and the two must agree.
type ckptBases struct {
	dense, rec, unrel outcome
}

func (f familyRow) ckptBases(in difftest.Instance) (b ckptBases, err error) {
	b.dense = f.exec(in, congest.Config{Scheduler: congest.SchedulerDense})
	if b.dense.err != nil {
		return b, fmt.Errorf("baseline: %v", b.dense.err)
	}
	for i, sched := range schedulers {
		r, u := f.cell(in, ckptCell{net: netFaulty}, sched, nil), outcome{}
		if f.unreliable {
			u = f.cell(in, ckptCell{net: netUnreliable}, sched, nil)
		}
		if err := r.diverges(b.dense); err != nil {
			return b, fmt.Errorf("sched=%v faulty baseline: %v", sched, err)
		}
		if i > 0 && !reflect.DeepEqual([]outcome{r, u}, []outcome{b.rec, b.unrel}) {
			return b, fmt.Errorf("sched=%v faulty or unreliable baseline diverges from sched=%v's", sched, schedulers[0])
		}
		b.rec, b.unrel = r, u
	}
	return b, nil
}

// cell runs in in c's environment under sched and checkpoint policy pol.
// A faulty cell's Recorder observes beside the stream (congest.Tee carries
// its state through a snapshot) and is the network's physical-cost sink.
func (f familyRow) cell(in difftest.Instance, c ckptCell, sched congest.Scheduler, pol *congest.CheckpointPolicy) outcome {
	cfg := congest.Config{Scheduler: sched, Checkpoint: pol}
	switch c.net {
	case netPerfect:
		return f.exec(in, cfg)
	case netUnreliable:
		net := &difftest.Unreliable{Plan: ckptPlan}
		cfg.Network = net
		o := f.exec(in, cfg)
		o.faults = net.Recorded()
		return o
	}
	var o outcome
	var st stamps
	rec := obs.NewRecorder(&st)
	net := faults.New(ckptPlan)
	net.Sink = rec
	cfg.Network, cfg.Observer = net, congest.Tee(rec, &o.events)
	o.res, o.err = f.run(in, cfg)
	phases := rec.Breakdown()
	for i := range phases {
		phases[i].Wall = 0 // wall clock: no two runs agree on it
	}
	phys, seen := rec.TotalPhys()
	o.rec = &recording{phases, rec.Total(), phys, seen, rec.Runs(), st}
	return o
}

// recording is a faulty cell's Recorder at the end of the run: its
// accounting and the (run, global round) stamp of every event it emitted.
type recording struct {
	phases   []obs.PhaseBreakdown
	total    congest.Stats
	phys     faults.PhysStats
	physSeen bool
	runs     int
	stamps   stamps
}

// stamps is an obs.Sink keeping the stamps of a Recorder's events.
type stamps [][2]int

func (s *stamps) Emit(e obs.Event) error { *s = append(*s, [2]int{e.Run, e.GlobalRound}); return nil }
func (s *stamps) Close() error           { return nil }

// diverges reports how a Recorder resumed in engine run k differs from
// the uninterrupted one: in accounting, or in the stamps it emitted after
// run k started (the events before re-execute earlier runs; the resumed
// run skips the rounds the snapshot covers, so its tail must match the
// baseline's).
func (r *recording) diverges(base *recording, k int) error {
	got, want := *r, *base
	if got.stamps, want.stamps = nil, nil; !reflect.DeepEqual(got, want) {
		return fmt.Errorf("recorder accounting %+v, baseline %+v", got, want)
	}
	tail := r.stamps
	for i, s := range r.stamps {
		if s[0] == k+1 { // run k's run_start
			tail = r.stamps[i+1:]
			break
		}
	}
	if len(tail) > len(base.stamps) || !slices.Equal(tail, base.stamps[len(base.stamps)-len(tail):]) {
		return fmt.Errorf("recorder stamps after the resume diverge from the baseline's")
	}
	return nil
}

// TestCheckpointConformance kills each family's run at every probe × {no
// network, all faults with a Recorder, and for Core all faults on
// difftest.Unreliable}, once under each scheduler: a snapshot holds no
// scheduler state, so the two kills must write the same bytes. It resumes
// that one snapshot under each scheduler. A probe past its run's end does
// not fire; three per instance must.
func TestCheckpointConformance(t *testing.T) {
	for _, f := range familyRows() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			named(t, f.ckpt, func(in difftest.Instance) error {
				bases, err := f.ckptBases(in)
				if err != nil {
					return err
				}
				fired := 0
				for _, c := range f.ckptCells() {
					k, err := f.kill(in, c, schedulers...)
					for _, sched := range schedulers {
						if err == nil && k != nil {
							err = f.resume(in, c, sched, k, bases)
						}
					}
					if err != nil {
						return err
					}
					if k != nil {
						fired++
					}
				}
				if fired < 3 {
					return fmt.Errorf("only %d checkpoint cells fired; the probes no longer exercise this family", fired)
				}
				return nil
			})
		})
	}
}

// TestCheckpointNetworkMismatch: a snapshot resumes only into the kind of
// network that wrote it. Core's unreliable run, killed while a delayed
// message is still queued, must not resume over the reliability shim, and
// the faulty run killed at that barrier must not resume into
// difftest.Unreliable: each restore fails with the network's error.
func TestCheckpointNetworkMismatch(t *testing.T) {
	f := familyRows()[0]
	in := f.ckpt[0]
	for _, pr := range f.probes {
		u, err := f.kill(in, ckptCell{netUnreliable, pr}, congest.SchedulerActive)
		if err != nil || u == nil {
			t.Fatalf("probe %+v: killed %v, err %v", pr, u != nil, err)
		}
		snap := &congest.Snapshot{}
		if err := snap.UnmarshalBinary(u.snap); err != nil {
			t.Fatal(err)
		}
		queued := &difftest.Unreliable{}
		queued.Reset(in.G.N())
		if err := congest.Unmarshal(snap.Net, queued); err != nil {
			t.Fatal(err)
		}
		if queued.NextDue(pr.round+1) == 0 {
			continue // nothing delayed past the kill round
		}
		r, err := f.kill(in, ckptCell{netFaulty, pr}, congest.SchedulerActive)
		if err != nil || r == nil {
			t.Fatalf("probe %+v: faulty kill %v, err %v", pr, r != nil, err)
		}
		for _, x := range []struct {
			k    *killed
			into ckptNet
			want string
		}{{u, netFaulty, "faults: snapshot is for n="}, {r, netUnreliable, "difftest: snapshot is the reliability shim's"}} {
			snap := &congest.Snapshot{}
			if err := snap.UnmarshalBinary(x.k.snap); err != nil {
				t.Fatal(err)
			}
			o := f.cell(in, ckptCell{net: x.into}, congest.SchedulerActive, &congest.CheckpointPolicy{Resume: snap})
			if o.err == nil || !strings.Contains(o.err.Error(), x.want) {
				t.Errorf("probe %+v resumed into net=%d: err %v, want one containing %q", pr, x.into, o.err, x.want)
			}
		}
		return
	}
	t.Fatal("no probe killed Core's unreliable run with a delayed message queued")
}

// killed is a run killed at a cell's probe: what it observed, and its
// snapshot's bytes, whole and with the Recorder blob left out.
type killed struct {
	outcome
	snap, sansObs []byte
}

// kill runs in c's environment under each of scheds until c's probe kills
// it. The kills must observe the same and write the same snapshot,
// Recorder blob aside (its wall clock differs). It returns the last kill,
// or nil, nil if the probe is past the run.
func (f familyRow) kill(in difftest.Instance, c ckptCell, scheds ...congest.Scheduler) (k *killed, err error) {
	for i, sched := range scheds {
		keep := &checkpoint.Keeper{}
		prev := k
		k = &killed{outcome: f.cell(in, c, sched, &congest.CheckpointPolicy{AtRound: c.pr.round, Run: c.pr.run, Stop: true, Sink: keep.Sink})}
		if i > 0 {
			if err := k.diverges(prev.outcome); err != nil {
				return nil, c.errorf("the kill under sched=%v diverges from sched=%v's: %v", sched, scheds[i-1], err)
			}
		}
		if k.err == nil {
			continue
		}
		if !errors.Is(k.err, congest.ErrCheckpointStop) {
			return nil, c.errorf("kill under sched=%v: want ErrCheckpointStop, got %v", sched, k.err)
		}
		snap, saves := keep.Latest()
		if snap == nil || saves != 1 || snap.Round != c.pr.round || snap.RunIdx != c.pr.run {
			return nil, c.errorf("sched=%v: %d snapshots, the last at %+v", sched, saves, snap)
		}
		k.snap, err = snap.MarshalBinary()
		sansObs, errS := marshalSansObs(snap)
		if err = errors.Join(err, errS); err != nil {
			return nil, c.errorf("snapshot: %v", err)
		}
		if k.sansObs = sansObs; i > 0 && !bytes.Equal(sansObs, prev.sansObs) {
			return nil, c.errorf("the snapshot killed under sched=%v differs from sched=%v's from byte %d on",
				sched, scheds[i-1], firstDiff(sansObs, prev.sansObs))
		}
	}
	if k.snap == nil {
		return nil, nil
	}
	return k, nil
}

// resume restores k's snapshot in a fresh run of c's environment under
// sched and compares that with the baselines.
func (f familyRow) resume(in difftest.Instance, c ckptCell, sched congest.Scheduler, k *killed, bases ckptBases) error {
	snap := &congest.Snapshot{}
	if err := snap.UnmarshalBinary(k.snap); err != nil {
		return c.errorf("snapshot round trip: %v", err)
	}
	resumed := f.cell(in, c, sched, &congest.CheckpointPolicy{Resume: snap})
	resumed.events = slices.Concat(k.events, resumed.events.after(c.pr.run))
	base := bases.dense
	if c.net == netUnreliable {
		base = bases.unrel
	}
	if err := resumed.diverges(base); err != nil {
		return c.errorf("resumed under sched=%v: %v", sched, err)
	}
	if c.net == netFaulty {
		if err := resumed.rec.diverges(bases.rec.rec, c.pr.run); err != nil {
			return c.errorf("resumed under sched=%v: %v", sched, err)
		}
	}
	return nil
}

func (c ckptCell) errorf(format string, args ...any) error {
	return fmt.Errorf("net=%d run=%d round=%d: %s", c.net, c.pr.run, c.pr.round, fmt.Sprintf(format, args...))
}
