package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

func init() {
	register("E-CRASH", eCrash)
}

// eCrash measures the crash/checkpoint substrate on the pipelined
// Algorithm 1: the snapshot cost of periodic checkpointing (count and
// serialized bytes per cadence), a kill-and-resume drill, and a scripted
// crash-stop fault recovered by the checkpoint supervisor. Every scenario
// asserts the final distances, parents and logical Stats are bit-identical
// to the uninterrupted baseline — determinism is the whole point of the
// checkpoint design, so any drift is an error, not a table entry.
func eCrash(cfg Config) (*Table, error) {
	n, m := 48, 160
	if cfg.Small {
		n, m = 24, 80
	}
	g := graph.Random(n, m, graph.GenOpts{Seed: cfg.Seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	sources := []int{0, 1, 2}
	h := n - 1

	run := func(net congest.Network, pol *congest.CheckpointPolicy) (*core.Result, error) {
		return core.Run(g, core.Opts{Sources: sources, H: h, Engine: congest.Config{Workers: cfg.Workers, Network: net, Checkpoint: pol}})
	}
	base, err := run(nil, nil)
	if err != nil {
		return nil, err
	}
	same := func(res *core.Result) error {
		if res.Stats != base.Stats || !reflect.DeepEqual(res.Dist, base.Dist) || !reflect.DeepEqual(res.Parent, base.Parent) {
			return fmt.Errorf("result diverged from the uninterrupted baseline")
		}
		return nil
	}

	t := &Table{
		ID:      "E-CRASH",
		Title:   "Crash faults & checkpointing: snapshot cost and bit-exact recovery",
		Headers: []string{"scenario", "rounds", "messages", "snapshots", "snapBytes", "restarts", "outcome"},
	}
	t.AddRow("baseline", base.Stats.Rounds, base.Stats.Messages, 0, "-", 0, "ok")

	// Periodic checkpointing: pure overhead measurement; the run is never
	// interrupted, so the result must be untouched.
	for _, every := range []int{1, 8, 32} {
		snaps, bytes := 0, 0
		pol := &congest.CheckpointPolicy{Every: every, Sink: func(s *congest.Snapshot) error {
			b, err := s.MarshalBinary()
			if err != nil {
				return err
			}
			snaps++
			bytes += len(b)
			return nil
		}}
		res, err := run(nil, pol)
		if err != nil {
			return nil, fmt.Errorf("every=%d: %w", every, err)
		}
		if err := same(res); err != nil {
			return nil, fmt.Errorf("every=%d: %w", every, err)
		}
		t.AddRow(fmt.Sprintf("checkpoint every=%d", every), res.Stats.Rounds, res.Stats.Messages,
			snaps, bytes, 0, "ok")
	}

	// Kill-and-resume drill: stop at the midpoint barrier, serialize, and
	// resume in a fresh engine.
	mid := base.Stats.Rounds / 2
	if mid < 1 {
		mid = 1
	}
	k := &checkpoint.Keeper{}
	_, err = run(nil, &congest.CheckpointPolicy{AtRound: mid, Stop: true, Sink: k.Sink})
	if err != congest.ErrCheckpointStop {
		return nil, fmt.Errorf("kill@%d: want ErrCheckpointStop, got %v", mid, err)
	}
	snap, _ := k.Latest()
	raw, err := snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	snap2 := &congest.Snapshot{}
	if err := snap2.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	res, err := run(nil, &congest.CheckpointPolicy{Resume: snap2})
	if err != nil {
		return nil, fmt.Errorf("resume@%d: %w", mid, err)
	}
	if err := same(res); err != nil {
		return nil, fmt.Errorf("resume@%d: %w", mid, err)
	}
	t.AddRow(fmt.Sprintf("kill@%d + resume", mid), res.Stats.Rounds, res.Stats.Messages,
		1, len(raw), 0, "ok")

	// Supervised crash-stop recovery: node 1 crashes at the midpoint with
	// a restart offset; the supervisor re-arms from the latest per-4-round
	// snapshot and the recovered run must still match the baseline.
	net := faults.New(faults.Plan{Seed: cfg.FaultSeed})
	net.Script = []faults.Event{{Round: mid, From: 1, Kind: faults.CrashEvent, Arg: 1}}
	k2 := &checkpoint.Keeper{}
	snaps := 0
	pol := &congest.CheckpointPolicy{Every: 4, Sink: func(s *congest.Snapshot) error {
		snaps++
		return k2.Sink(s)
	}}
	var rec *core.Result
	restartsDone, err := checkpoint.Supervise(pol, k2, 3, func() error {
		r, ferr := run(net, pol)
		if ferr == nil {
			rec = r
		}
		return ferr
	})
	if err != nil {
		return nil, fmt.Errorf("supervised crash: %w", err)
	}
	if err := same(rec); err != nil {
		return nil, fmt.Errorf("supervised crash: %w", err)
	}
	t.AddRow(fmt.Sprintf("crash 1@%d+1 (every=4)", mid), rec.Stats.Rounds, rec.Stats.Messages,
		snaps, "-", restartsDone, "recovered")

	t.Note("all scenarios asserted bit-identical distances, parents and Stats vs the uninterrupted baseline")
	t.Note("snapBytes is the serialized snapshot size (MarshalBinary); kill+resume shows one snapshot's size")
	return t, nil
}
