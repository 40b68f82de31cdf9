package apsp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
)

// The crash/restore paths the conformance table (conformance_test.go)
// does not sweep: observer state behind a Tee, substrate state across a
// double resume, node panics, supervised restarts, the disk container and
// the fuzzed round trip.

// TestCheckpointTeeCarriesObserverState: a Recorder behind a congest.Tee
// checkpoints and restores like a bare one — the snapshot carries its
// state, and the resumed Recorder counts the executed rounds of an
// uninterrupted run.
func TestCheckpointTeeCarriesObserverState(t *testing.T) {
	in := ckptInstance(11)
	executed := func(pol *congest.CheckpointPolicy) int {
		rec := obs.NewRecorder()
		_, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
			Engine: congest.Config{Observer: congest.Tee(rec, &stream{}), Checkpoint: pol}})
		if err != nil && !errors.Is(err, congest.ErrCheckpointStop) {
			t.Fatal(err)
		}
		rounds := 0
		for _, p := range rec.Breakdown() {
			rounds += p.RoundsExecuted
		}
		return rounds
	}
	base := executed(nil)
	k := &checkpoint.Keeper{}
	executed(&congest.CheckpointPolicy{AtRound: 4, Stop: true, Sink: k.Sink})
	snap, _ := k.Latest()
	if snap == nil || len(snap.Obs) == 0 {
		t.Fatal("a snapshot taken through a Tee carries no observer state")
	}
	if got := executed(&congest.CheckpointPolicy{Resume: snap}); got != base {
		t.Fatalf("resumed Recorder counts %d executed rounds, uninterrupted run %d", got, base)
	}
}

// TestCheckpointResumeUnderChaos round-trips the delivery substrate's
// state through a snapshot: under the all-faults plan, a checkpoint taken
// at round 6 by a run resumed from round 3 must be byte-identical —
// in-flight packets, per-link sequence and ACK cursors included — to the
// round-6 checkpoint of an uninterrupted run.
func TestCheckpointResumeUnderChaos(t *testing.T) {
	in := ckptInstance(12)
	plan := faults.All(5)
	snapAt := func(pol *congest.CheckpointPolicy, k *checkpoint.Keeper) *congest.Snapshot {
		_, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Network: faults.New(plan), Checkpoint: pol}})
		if !errors.Is(err, congest.ErrCheckpointStop) {
			t.Fatalf("want ErrCheckpointStop, got %v", err)
		}
		snap, _ := k.Latest()
		if snap == nil {
			t.Fatal("no snapshot delivered")
		}
		return snap
	}
	k6 := &checkpoint.Keeper{}
	direct := snapAt(&congest.CheckpointPolicy{AtRound: 6, Stop: true, Sink: k6.Sink}, k6)
	k3 := &checkpoint.Keeper{}
	snap3 := snapAt(&congest.CheckpointPolicy{AtRound: 3, Stop: true, Sink: k3.Sink}, k3)
	if len(snap3.Net) == 0 {
		t.Fatal("round-3 snapshot carries no substrate state; the chaos plan is not exercising the network")
	}
	k63 := &checkpoint.Keeper{}
	via := snapAt(&congest.CheckpointPolicy{Resume: snap3, AtRound: 6, Stop: true, Sink: k63.Sink}, k63)
	db, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := via.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db, vb) {
		t.Fatal("round-6 snapshot differs between the uninterrupted run and the run resumed from round 3")
	}
}

// panicNode injects a node-local fault: node `id` panics in round `at`.
type panicNode struct{ id, at int }

func (p *panicNode) Init(*congest.Context) {}
func (p *panicNode) Round(_ *congest.Context, r int, _ []congest.Message) {
	if p.id == 2 && r == p.at {
		panic("injected node fault")
	}
}
func (p *panicNode) Quiescent() bool { return false }

// TestCheckpointPanicBecomesCrashError: a panicking node must not take the
// engine (or the process) down — it surfaces as a structured CrashError
// naming the node and round, with Restart 0 (panics are not schedulable
// restarts).
func TestCheckpointPanicBecomesCrashError(t *testing.T) {
	g := graph.Random(8, 16, graph.GenOpts{Seed: 2, MaxW: 3})
	for _, workers := range []int{1, 4} {
		_, err := congest.Run(g, func(v int) congest.Node { return &panicNode{id: v, at: 3} },
			congest.Config{Workers: workers, MaxRounds: 10})
		var ce *congest.CrashError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: want CrashError, got %v", workers, err)
		}
		if ce.Node != 2 || ce.Round != 3 || ce.Restart != 0 || ce.Panic == nil {
			t.Fatalf("workers=%d: CrashError fields %+v", workers, ce)
		}
	}
}

// TestCheckpointSupervisedRestart drives the full crash-stop story: a
// scripted crash kills node 1 with a restart offset, the supervisor
// re-arms from the latest checkpoint the cadence left, and the restarted
// computation completes with the fault-free answer — distances, parents
// and Stats bit-identical. At Every 4 the crash lands between
// checkpoints, so recovery replays from an older snapshot. The rows with
// no crash pin that periodic checkpointing alone leaves the result
// untouched at every cadence. The faults.Network is shared across
// attempts, so the fired crash stays disarmed.
func TestCheckpointSupervisedRestart(t *testing.T) {
	in := ckptInstance(13)
	base, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H})
	if err != nil {
		t.Fatal(err)
	}
	mid := base.Stats.Rounds/2 | 1 // odd, so never on an Every-4 barrier
	for _, c := range []struct {
		every, crashAt int // crashAt 0: no crash, no fault shim
	}{{1, 4}, {4, mid}, {1, 0}, {8, 0}, {32, 0}} {
		name := fmt.Sprintf("every=%d crash@%d", c.every, c.crashAt)
		var net congest.Network
		var fnet *faults.Network
		if c.crashAt > 0 {
			fnet = faults.New(faults.Plan{})
			fnet.Script = []faults.Event{{Round: c.crashAt, From: 1, Kind: faults.CrashEvent, Arg: 1}}
			net = fnet
		}
		k := &checkpoint.Keeper{}
		pol := &congest.CheckpointPolicy{Every: c.every, Sink: k.Sink}
		var res *core.Result
		restarts, err := checkpoint.Supervise(pol, k, 3, func() error {
			r, ferr := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Network: net, Checkpoint: pol}})
			if ferr == nil {
				res = r
			}
			return ferr
		})
		if err != nil {
			t.Fatalf("%s: supervised run failed after %d restarts: %v", name, restarts, err)
		}
		if fnet == nil {
			if restarts != 0 || pol.Resume != nil {
				t.Fatalf("%s: %d restarts with no crash scripted", name, restarts)
			}
			if _, saves := k.Latest(); saves < base.Stats.Rounds/c.every || saves > base.Stats.Rounds/c.every+1 {
				t.Fatalf("%s: %d checkpoints over %d rounds", name, saves, base.Stats.Rounds)
			}
		} else {
			if restarts != 1 {
				t.Fatalf("%s: restarts = %d, want 1", name, restarts)
			}
			if disarmed := fnet.DisarmedCrashes(); len(disarmed) != 1 || disarmed[0] != 0 {
				t.Fatalf("%s: DisarmedCrashes = %v, want [0]", name, disarmed)
			}
			if pol.Resume == nil {
				t.Fatalf("%s: restarted without a checkpoint", name)
			}
			if want := c.crashAt - c.crashAt%c.every; pol.Resume.Round != want {
				t.Fatalf("%s: resumed from round %d, want the checkpoint at %d", name, pol.Resume.Round, want)
			}
		}
		if res.Stats != base.Stats || !reflect.DeepEqual(res.Dist, base.Dist) || !reflect.DeepEqual(res.Parent, base.Parent) {
			t.Fatalf("%s: supervised result diverges from the fault-free run", name)
		}
	}
}

// TestCheckpointUnrecoverableCrash: a crash event with no restart offset
// must surface as an unrecoverable error, not loop the supervisor.
func TestCheckpointUnrecoverableCrash(t *testing.T) {
	in := ckptInstance(14)
	net := faults.New(faults.Plan{})
	net.Script = []faults.Event{{Round: 2, From: 3, Kind: faults.CrashEvent}}
	k := &checkpoint.Keeper{}
	pol := &congest.CheckpointPolicy{Every: 1, Sink: k.Sink}
	restarts, err := checkpoint.Supervise(pol, k, 3, func() error {
		_, ferr := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Network: net, Checkpoint: pol}})
		return ferr
	})
	var ce *congest.CrashError
	if !errors.As(err, &ce) || ce.Node != 3 || ce.Round != 2 {
		t.Fatalf("want unrecoverable CrashError for node 3 round 2, got %v", err)
	}
	if restarts != 0 {
		t.Fatalf("restarts = %d, want 0", restarts)
	}
}

// TestCheckpointFileRoundTrip covers the disk container: Save → Load →
// resume, plus metadata validation against the wrong computation.
func TestCheckpointFileRoundTrip(t *testing.T) {
	in := ckptInstance(15)
	base, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.ckpt"
	meta := &checkpoint.Meta{
		Alg: "core", N: in.G.N(), M: in.G.M(), Graph: checkpoint.Fingerprint(in.G),
		Sources: in.Sources, H: in.H,
	}
	k := &checkpoint.Keeper{Path: path, Meta: meta}
	_, err = core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
		Engine: congest.Config{Checkpoint: &congest.CheckpointPolicy{AtRound: 3, Stop: true, Sink: k.Sink}}})
	if !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("want ErrCheckpointStop, got %v", err)
	}
	gotMeta, snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gotMeta.ValidateAgainst(in.G, in.Sources, in.H, "", snap.Sched); err != nil {
		t.Fatalf("metadata should validate against its own run: %v", err)
	}
	other := graph.Random(20, 60, graph.GenOpts{Seed: 99, MaxW: 6, Directed: true})
	if err := gotMeta.ValidateAgainst(other, in.Sources, in.H, "", snap.Sched); err == nil {
		t.Fatal("metadata validated against a different graph")
	}
	if err := gotMeta.ValidateAgainst(in.G, in.Sources, in.H, "drop=0.2", snap.Sched); err == nil {
		t.Fatal("metadata validated against a different fault plan")
	}
	res, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
		Engine: congest.Config{Checkpoint: &congest.CheckpointPolicy{Resume: snap}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != base.Stats || !reflect.DeepEqual(res.Dist, base.Dist) {
		t.Fatal("resume from disk diverges from the uninterrupted run")
	}
}

// FuzzCheckpointRoundTrip fuzzes the kill/serialize/resume cycle over
// seeds, checkpoint rounds, schedulers and fault plans, asserting the
// resumed run is always bit-identical to the uninterrupted one.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), false, uint8(0))
	f.Add(int64(7), uint8(1), true, uint8(2))
	f.Add(int64(42), uint8(6), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, round uint8, active bool, planSel uint8) {
		g := graph.Random(12, 30, graph.GenOpts{Seed: seed, MaxW: 5, ZeroFrac: 0.2, Directed: true})
		sources := []int{0, 5}
		R := int(round%8) + 1
		sched := congest.SchedulerDense
		if active {
			sched = congest.SchedulerActive
		}
		var plan *faults.Plan
		switch planSel % 3 {
		case 1:
			plan = &faults.Plan{Seed: seed}
		case 2:
			all := faults.All(seed)
			plan = &all
		}
		run := func(net congest.Network, pol *congest.CheckpointPolicy) (*bellman.Result, error) {
			return bellman.Run(g, bellman.Opts{Sources: sources, H: 5, Engine: congest.Config{Scheduler: sched, Network: net, Checkpoint: pol}})
		}
		base, err := run(netOf(plan), nil)
		if err != nil {
			t.Fatal(err)
		}
		k := &checkpoint.Keeper{}
		_, err = run(netOf(plan), &congest.CheckpointPolicy{AtRound: R, Stop: true, Sink: k.Sink})
		if err == nil {
			return // run finished before round R; nothing to resume
		}
		if !errors.Is(err, congest.ErrCheckpointStop) {
			t.Fatalf("R=%d: %v", R, err)
		}
		snap, _ := k.Latest()
		b, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snap2 := &congest.Snapshot{}
		if err := snap2.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		res, err := run(netOf(plan), &congest.CheckpointPolicy{Resume: snap2})
		if err != nil {
			t.Fatalf("R=%d: resume: %v", R, err)
		}
		if res.Stats != base.Stats || !reflect.DeepEqual(res.Dist, base.Dist) || !reflect.DeepEqual(res.Parent, base.Parent) {
			t.Fatalf("R=%d sched=%v plan=%v: resumed run diverges", R, sched, plan)
		}
	})
}
