package apsp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/approx"
	"repro/internal/bellman"
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

// These tests differentially verify the adversarial-delivery layer
// (internal/faults): under any fault plan, the reliability shim must make
// every protocol compute bit-identical distances, parents and logical
// Stats to the fault-free dense engine, on both schedulers. A divergence
// here means the synchronizer failed to restore synchronous semantics —
// a correctness bug in the shim, never an accepted behavior change.

// faultSweepPlans are the conformance matrix's fault columns. nil is the
// true baseline (no Network installed at all); the zero plan exercises
// the shim's machinery with a perfect physical network.
func faultSweepPlans(seed int64) []*faults.Plan {
	return []*faults.Plan{
		nil,
		{Seed: seed},                // shim engaged, perfect wire
		{Seed: seed, MaxDelay: 4},   // delay only
		{Seed: seed, Drop: 0.2},     // drop + retransmit
		{Seed: seed, Dup: 0.3},      // duplication
		{Seed: seed, Reorder: true}, // adversarial arrival order
		faultPlanAll(seed),          // everything at once
	}
}

func faultPlanAll(seed int64) *faults.Plan {
	p := faults.All(seed)
	return &p
}

func planName(p *faults.Plan) string {
	if p == nil {
		return "baseline"
	}
	return p.String()
}

// sweepFaultConformance runs one protocol over the full
// scheduler × fault-plan matrix on the difftest families, comparing every
// cell against the fault-free dense run. run returns a deep-comparable
// result payload plus the logical Stats. Optional oracles are applied to
// the fault-free baseline payload, anchoring the whole matrix to an
// independent reference rather than only to itself.
func sweepFaultConformance(t *testing.T, space difftest.Space,
	run func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error),
	oracles ...func(in difftest.Instance, baseRes interface{}) error) {
	t.Helper()
	difftest.Search(t, space, func(in difftest.Instance) error {
		baseRes, baseStats, baseErr := run(in, congest.SchedulerDense, nil)
		if baseErr == nil {
			for _, oracle := range oracles {
				if err := oracle(in, baseRes); err != nil {
					return fmt.Errorf("fault-free dense baseline vs reference: %w", err)
				}
			}
		}
		for _, sched := range []congest.Scheduler{congest.SchedulerDense, congest.SchedulerActive} {
			for _, plan := range faultSweepPlans(in.Seed + 1) {
				if sched == congest.SchedulerDense && plan == nil {
					continue // that is the baseline itself
				}
				var net congest.Network
				if plan != nil {
					net = faults.New(*plan)
				}
				cell := fmt.Sprintf("sched=%v plan=%s", sched, planName(plan))
				res, stats, err := run(in, sched, net)
				if done, cmp := cmpErr(baseErr, err); done {
					if cmp != nil {
						return fmt.Errorf("%s: %w", cell, cmp)
					}
					continue
				}
				if stats != baseStats {
					return fmt.Errorf("%s: logical stats diverge: %+v vs baseline %+v", cell, stats, baseStats)
				}
				if !reflect.DeepEqual(res, baseRes) {
					return fmt.Errorf("%s: results diverge from fault-free dense run", cell)
				}
			}
		}
		return nil
	})
}

func TestFaultConformanceCore(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 3},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Hops, res.Parent, res.LateSends, res.Collisions}, res.Stats, nil
		})
}

func TestFaultConformancePosweight(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 3, ZeroFrac: -1},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := posweight.Run(in.G, posweight.Opts{Sources: in.Sources, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Parent, res.LateSends, res.MissedSends}, res.Stats, nil
		},
		// Unrestricted SSSP: the baseline must also match the parallel
		// compute backend, not just survive the fault matrix.
		func(in difftest.Instance, baseRes interface{}) error {
			return difftest.SSSPOracle(in, baseRes.([]interface{})[0].([][]int64))
		})
}

func TestFaultConformanceUnweighted(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 3},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := unweighted.KSource(in.G, in.Sources, congest.Config{Scheduler: sched, Network: net})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Parent}, res.Stats, nil
		})
}

func TestFaultConformanceBellman(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 3},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := bellman.Run(in.G, bellman.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Parent}, res.Stats, nil
		})
}

func TestFaultConformanceShortRange(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 3},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := shortrange.Run(in.G, shortrange.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Hops, res.Snap}, res.Stats, nil
		})
}

func TestFaultConformanceScaling(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 2},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := scaling.Run(in.G, scaling.Opts{Sources: in.Sources, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.PhaseRounds}, res.Stats, nil
		},
		// Scaling is exact and unrestricted: anchor the baseline to the
		// parallel compute backend.
		func(in difftest.Instance, baseRes interface{}) error {
			return difftest.SSSPOracle(in, baseRes.([]interface{})[0].([][]int64))
		})
}

// TestFaultConformanceBlockerAPSP covers the full multi-phase pipeline
// (cssp → blocker → per-blocker SSSP → broadcast) in one sweep: dozens of
// engine runs share one faults.Network across phases.
func TestFaultConformanceBlockerAPSP(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 2},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := hssp.Run(in.G, hssp.Opts{Sources: in.Sources, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Dist, res.Q, res.H, res.PhaseRounds}, res.Stats, nil
		})
}

func TestFaultConformanceApprox(t *testing.T) {
	sweepFaultConformance(t, difftest.Space{SeedsPerSize: 2},
		func(in difftest.Instance, sched congest.Scheduler, net congest.Network) (interface{}, congest.Stats, error) {
			res, err := approx.Run(in.G, approx.Opts{Sources: in.Sources, Eps: 0.5, Engine: congest.Config{Scheduler: sched, Network: net}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			return []interface{}{res.Scaled, res.Scales, res.PhaseRounds}, res.Stats, nil
		})
}

// TestFaultConformanceObserverStream asserts the strongest form of
// invariance: the engine's per-round observer stream (RoundDone and
// NodeSends events, wall clock excluded) is bit-identical between a
// fault-free dense run and an active-scheduler run under the all-faults
// plan, across every engine run of a multi-phase BlockerAPSP.
func TestFaultConformanceObserverStream(t *testing.T) {
	g := graph.Random(32, 128, graph.GenOpts{Seed: 11, MaxW: 8, ZeroFrac: 0.2, Directed: true})
	run := func(s congest.Scheduler, net congest.Network) (*hssp.Result, *streamRecorder) {
		rec := &streamRecorder{}
		res, err := hssp.Run(g, hssp.Opts{Engine: congest.Config{Scheduler: s, Observer: rec, Network: net}})
		if err != nil {
			t.Fatalf("scheduler %d: %v", s, err)
		}
		return res, rec
	}
	dres, drec := run(congest.SchedulerDense, nil)
	ares, arec := run(congest.SchedulerActive, faults.New(faults.All(99)))
	if dres.Stats != ares.Stats {
		t.Fatalf("stats diverge: fault-free %+v, chaos %+v", dres.Stats, ares.Stats)
	}
	if !reflect.DeepEqual(dres.Dist, ares.Dist) || !reflect.DeepEqual(dres.Q, ares.Q) {
		t.Fatal("results diverge")
	}
	if drec.runs != arec.runs {
		t.Fatalf("engine run count diverges: %d vs %d", drec.runs, arec.runs)
	}
	if len(drec.rounds) != len(arec.rounds) {
		t.Fatalf("RoundDone stream length diverges: %d vs %d", len(drec.rounds), len(arec.rounds))
	}
	for i := range drec.rounds {
		if drec.rounds[i] != arec.rounds[i] {
			t.Fatalf("RoundDone[%d] diverges: fault-free %+v, chaos %+v", i, drec.rounds[i], arec.rounds[i])
		}
	}
	if !reflect.DeepEqual(drec.sends, arec.sends) {
		t.Fatal("NodeSends stream diverges")
	}
}

// deliveryOrderGraph is the minimal tie-breaking instance for the
// delivery-order invariant: two equal-weight two-hop paths 0→1→3 and
// 0→2→3, so node 3 receives two equally good distance updates in the same
// logical round and its parent choice depends entirely on inbox order.
func deliveryOrderGraph() *graph.Graph {
	g := graph.New(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 3, 1)
	return g
}

// TestDeliveryOrderInvariant pins down the engine assumption that used to
// be implicit: inboxes are ordered by (sender, per-link sequence), never
// by physical arrival order. The same delay script is run twice — under
// the shim's canonical reassembly the result is bit-identical to the
// fault-free run even though link 1→3's packet physically arrives last;
// under ArrivalOrder (the old implicit behavior, kept as a test-only
// knob) the tie flips node 3's parent. If the engine ever regresses to
// arrival-order delivery, the canonical half of this test fails.
func TestDeliveryOrderInvariant(t *testing.T) {
	g := deliveryOrderGraph()
	// Both 1→3 and 2→3 carry their update in the same logical round;
	// delay 1→3's transmission so 2→3 is physically accepted first.
	script := []faults.Event{{Round: 2, From: 1, To: 3, Kind: faults.DelayEvent, Arg: 3}}

	run := func(net congest.Network) *bellman.Result {
		res, err := bellman.Run(g, bellman.Opts{Sources: []int{0}, H: 3, Engine: congest.Config{Network: net}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	if base.Dist[0][3] != 2 {
		t.Fatalf("baseline d(0,3) = %d, want 2", base.Dist[0][3])
	}

	// Canonical reassembly: bit-identical to the fault-free run.
	canon := faults.New(faults.Plan{})
	canon.Script = script
	cres := run(canon)
	if !reflect.DeepEqual(cres.Dist, base.Dist) || !reflect.DeepEqual(cres.Parent, base.Parent) {
		t.Errorf("canonical delivery diverged from fault-free run despite the shim:\nparents %v vs %v",
			cres.Parent, base.Parent)
	}

	// Arrival-order delivery: the identical physical schedule flips the
	// tie. This is the failure mode the invariant exists to prevent —
	// if this half ever stops flipping, the knob is no longer exercising
	// arrival order and the test above proves nothing.
	arrival := faults.New(faults.Plan{})
	arrival.Script = script
	arrival.ArrivalOrder = true
	ares := run(arrival)
	if !reflect.DeepEqual(ares.Dist, base.Dist) {
		t.Errorf("distances must not depend on inbox order on this graph: %v vs %v", ares.Dist, base.Dist)
	}
	if ares.Parent[0][3] == base.Parent[0][3] {
		t.Errorf("arrival-order delivery did not flip node 3's parent (both %d); the tie-breaking instance is broken",
			base.Parent[0][3])
	}
}
