package apsp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
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
	// ckpt and probes are the checkpoint sweep's instances and kill points.
	ckpt   []difftest.Instance
	probes []ckptProbe
	// sssp, when set, extracts the baseline distances difftest.SSSPOracle checks.
	sssp func(res any) [][]int64
}

// ckptProbe is one (engine run index, checkpoint round) kill point.
type ckptProbe struct{ run, round int }

// probeGrid is every kill point up to round rounds of the first runs engine
// runs: dense, as a dropped state field shows only where it is live.
func probeGrid(runs, rounds int) (ps []ckptProbe) {
	for r := range runs {
		for k := 1; k <= rounds; k++ {
			ps = append(ps, ckptProbe{r, k})
		}
	}
	return ps
}

func familyRows() []familyRow {
	single, multi := probeGrid(1, 32), probeGrid(4, 5)
	small := func(seed int64) []difftest.Instance {
		g := graph.Random(14, 42, graph.GenOpts{Seed: seed, MaxW: 6, ZeroFrac: 0.2, Directed: true})
		return []difftest.Instance{{G: g, Sources: []int{0, 7, 13}, Seed: seed}} // H 0: hssp picks h
	}
	step4 := small(9)[0]
	step4.H = 2
	var step4Probes []ckptProbe
	for k := 1; k <= 8; k++ {
		step4Probes = append(step4Probes, ckptProbe{19, k}, ckptProbe{20, k})
	}
	posIn := ckptInstance(4)
	posIn.G = graph.Random(20, 60, graph.GenOpts{Seed: 4, MaxW: 6, MinW: 1, Directed: true})
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
		ckpt: []difftest.Instance{ckptInstance(3), ckptInstance(11)}, probes: single,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, SnapshotRounds: []int{2, 5}, Engine: cfg})
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
		// The H = 2 checkpoint instance (|Q| = 2) ends in Step 4's gather
		// (run 19, 4 rounds) and the broadcast every node folds into its
		// row (run 20, 8 rounds): both are killed at every round.
		name: "BlockerAPSP", space: difftest.Space{SeedsPerSize: 2, H: -1}, faultSeeds: 2,
		extra: []difftest.Instance{allPairs(32, 11, 0)},
		large: []difftest.Instance{allPairs(64, 7, 0), allPairs(64, 7, 4)},
		ckpt:  append(small(9), step4), probes: append(multi, step4Probes...),
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return hssp.Run(in.G, hssp.Opts{Sources: in.Sources, H: in.H, Engine: cfg})
		},
	}, {
		name: "Approx", space: difftest.Space{SeedsPerSize: 2}, faultSeeds: 2, ckpt: small(10), probes: multi,
		run: func(in difftest.Instance, cfg congest.Config) (any, error) {
			return approx.Run(in.G, approx.Opts{Sources: in.Sources, Eps: 0.5, Engine: cfg})
		},
	}}
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
		&all,                        // everything at once
		{Seed: seed},                // shim engaged, perfect wire
		{Seed: seed, MaxDelay: 4},   // delay only
		{Seed: seed, Drop: 0.2},     // drop + retransmit
		{Seed: seed, Dup: 0.3},      // duplication
		{Seed: seed, Reorder: true}, // adversarial arrival order
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

// TestCheckpointConformance kills each family's run at every probe, both
// schedulers × {no network, all faults}, and resumes it from the serialized
// snapshot. A probe past its run's end does not fire; three per instance must.
func TestCheckpointConformance(t *testing.T) {
	for _, f := range familyRows() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			named(t, f.ckpt, func(in difftest.Instance) error {
				base, fired := f.exec(in, congest.Config{Scheduler: congest.SchedulerDense}), 0
				if base.err != nil {
					return fmt.Errorf("baseline: %v", base.err)
				}
				for _, sched := range schedulers {
					for _, plan := range []*faults.Plan{nil, faultSweepPlans(41)[0]} { // no network, all faults
						for _, pr := range f.probes {
							ok, err := f.killAndResume(in, sched, plan, pr, base)
							if err != nil {
								return fmt.Errorf("sched=%v plan=%v run=%d round=%d: %v", sched, plan, pr.run, pr.round, err)
							}
							if ok {
								fired++
							}
						}
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

// killAndResume kills one run at probe pr, resumes it in a fresh run, and
// compares that with the baseline; fired is false if pr is past the run.
func (f familyRow) killAndResume(in difftest.Instance, sched congest.Scheduler, plan *faults.Plan, pr ckptProbe, base outcome) (fired bool, err error) {
	k := &checkpoint.Keeper{}
	killed := f.exec(in, congest.Config{Scheduler: sched, Network: netOf(plan),
		Checkpoint: &congest.CheckpointPolicy{AtRound: pr.round, Run: pr.run, Stop: true, Sink: k.Sink}})
	if killed.err == nil {
		return false, nil
	}
	if !errors.Is(killed.err, congest.ErrCheckpointStop) {
		return true, fmt.Errorf("kill: want ErrCheckpointStop, got %v", killed.err)
	}
	snap, saves := k.Latest()
	if snap == nil || saves != 1 || snap.Round != pr.round || snap.RunIdx != pr.run {
		return true, fmt.Errorf("%d snapshots, the last at %+v", saves, snap)
	}
	b, err := snap.MarshalBinary()
	snap = &congest.Snapshot{}
	if err == nil {
		err = snap.UnmarshalBinary(b)
	}
	if err != nil {
		return true, fmt.Errorf("snapshot round trip: %v", err)
	}
	resumed := f.exec(in, congest.Config{Scheduler: sched, Network: netOf(plan),
		Checkpoint: &congest.CheckpointPolicy{Resume: snap}})
	resumed.events = append(killed.events, resumed.events.after(pr.run)...)
	if err := resumed.diverges(base); err != nil {
		return true, fmt.Errorf("resumed run: %w", err)
	}
	return true, nil
}
