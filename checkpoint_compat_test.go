package apsp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/obs"
	"repro/internal/posweight"
	"repro/internal/scaling"
	"repro/internal/shortrange"
)

var updateCompat = flag.Bool("update-compat", false,
	"write the checkpoint fixtures under testdata/compat/ that are missing; an existing fixture is never rewritten (delete its file to re-pin it deliberately)")

// The fixtures under testdata/compat are the snapshot-format compatibility
// gate: each body was written by the engine of an earlier commit (the
// container around it was re-sealed later by Load then Save), and the
// current engine must (a) load and resume it bit-exactly and (b) produce
// byte-identical snapshot bytes when killed at the same barrier — the
// on-disk format is an engine-internals-independent contract. Both hold
// under either scheduler: a snapshot records no scheduler state, so the
// "-active" in a fixture's name only says which scheduler wrote it.
// Together they pin every checkpointed layout: the 14 node kinds,
// core.List, faults.Network, obs.Recorder and the 8 payload codecs.

// compatCase is one committed fixture: a protocol killed at round `round`
// of engine run `runIdx`.
type compatCase struct {
	name          string
	runIdx, round int
	// exec executes the protocol with the policy and returns a
	// deep-comparable result payload plus the logical Stats.
	exec func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error)
	// instance pins the input for the fixture's Meta header.
	g       *graph.Graph
	sources []int
	h       int
	alg     string
	plan    string
	// obs marks a case whose snapshot carries an obs.Recorder blob. The
	// Recorder stores wall-clock time, so that blob is checked by
	// decode → re-encode rather than against a fresh kill.
	obs bool
}

func compatCases() []compatCase {
	coreG := graph.Random(20, 60, graph.GenOpts{Seed: 23, MaxW: 6, ZeroFrac: 0.2, Directed: true})
	coreSrc := []int{0, 7, 13}
	const coreH = 6
	coreRun := func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
		res, err := core.Run(coreG, core.Opts{Sources: coreSrc, H: coreH, Engine: congest.Config{Scheduler: sched, Checkpoint: pol}})
		if err != nil {
			return nil, congest.Stats{}, err
		}
		return []interface{}{res.Dist, res.Hops, res.Parent}, res.Stats, nil
	}
	bellG := graph.Random(18, 54, graph.GenOpts{Seed: 29, MaxW: 5, Directed: true})
	bellSrc := []int{0, 5}
	const bellH = 6
	bellRun := func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
		res, err := bellman.Run(bellG, bellman.Opts{Sources: bellSrc, H: bellH, Engine: congest.Config{Scheduler: sched, Checkpoint: pol}})
		if err != nil {
			return nil, congest.Stats{}, err
		}
		return []interface{}{res.Dist, res.Parent}, res.Stats, nil
	}
	cs := []compatCase{{
		name: "core-active", round: 5, exec: coreRun,
		g: coreG, sources: coreSrc, h: coreH, alg: "core",
	}, {
		name: "bellman-active", round: 4, exec: bellRun,
		g: bellG, sources: bellSrc, h: bellH, alg: "bellman",
	}}

	// Every other layout, on one instance. Each round is chosen so the
	// killed run's inboxes are non-empty.
	in := ckptInstance(11)
	const hsspH = 3
	hsspRun := func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
		res, err := hssp.Run(in.G, hssp.Opts{H: hsspH, Engine: congest.Config{Scheduler: sched, Checkpoint: pol}})
		if err != nil {
			return nil, congest.Stats{}, err
		}
		return []interface{}{res.Dist, res.Q, res.H, res.PhaseRounds}, res.Stats, nil
	}
	for _, hc := range []struct {
		kind          string
		runIdx, round int
	}{
		{"cssp-resel", 1, 4},
		{"blocker-claim", 2, 3},
		{"blocker-score", 3, 3},
		{"bcast-tree", 4, 3},
		{"bcast-claim", 5, 2},
		{"bcast-agg", 6, 2},
		{"bcast-pipe", 7, 4},
		{"blocker-update", 8, 3},
		{"hssp-bellman", 25, 3},
		{"bcast-gather", 39, 4},
	} {
		cs = append(cs, compatCase{
			name: hc.kind + "-active", runIdx: hc.runIdx, round: hc.round,
			exec: hsspRun, g: in.G, h: hsspH, alg: "hssp",
		})
	}
	engine := func(sched congest.Scheduler, pol *congest.CheckpointPolicy) congest.Config {
		return congest.Config{Scheduler: sched, Checkpoint: pol}
	}
	cs = append(cs,
		compatCase{
			name: "posweight-active", round: 3, g: in.G, sources: in.Sources, alg: "posweight",
			exec: func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
				res, err := posweight.Run(in.G, posweight.Opts{Sources: in.Sources, Engine: engine(sched, pol)})
				if err != nil {
					return nil, congest.Stats{}, err
				}
				return []interface{}{res.Dist, res.Parent, res.LateSends, res.MissedSends}, res.Stats, nil
			},
		},
		compatCase{
			name: "scaling-active", round: 3, g: in.G, sources: in.Sources, alg: "scaling",
			exec: func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
				res, err := scaling.Run(in.G, scaling.Opts{Sources: in.Sources, Engine: engine(sched, pol)})
				if err != nil {
					return nil, congest.Stats{}, err
				}
				return []interface{}{res.Dist, res.PhaseRounds}, res.Stats, nil
			},
		},
		compatCase{
			name: "shortrange-active", round: 3, g: in.G, sources: in.Sources, h: in.H, alg: "shortrange",
			exec: func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
				res, err := shortrange.Run(in.G, shortrange.Opts{Sources: in.Sources, H: in.H, Engine: engine(sched, pol)})
				if err != nil {
					return nil, congest.Stats{}, err
				}
				return []interface{}{res.Dist, res.Hops, res.Snap}, res.Stats, nil
			},
		})

	// core under every fault at once with a Recorder as both the engine
	// observer and the network's physical-cost sink: pins faults.Network
	// (per-link sequence numbers, the staged batch, physical counters) and
	// obs.Recorder.
	chaos := faults.All(41)
	cs = append(cs, compatCase{
		name: "core-chaos-obs-active", round: 6, g: in.G, sources: in.Sources, h: in.H,
		alg: "core", plan: chaos.String(), obs: true,
		exec: func(pol *congest.CheckpointPolicy, sched congest.Scheduler) (interface{}, congest.Stats, error) {
			rec := obs.NewRecorder()
			net := faults.New(chaos)
			net.Sink = rec
			res, err := core.Run(in.G, core.Opts{Sources: in.Sources, H: in.H,
				Engine: congest.Config{Scheduler: sched, Network: net, Observer: rec, Checkpoint: pol}})
			if err != nil {
				return nil, congest.Stats{}, err
			}
			phases := rec.Breakdown()
			for i := range phases {
				phases[i].Wall = 0
			}
			return []interface{}{res.Dist, res.Hops, res.Parent, phases, rec.Total()}, res.Stats, nil
		},
	})
	return cs
}

// killAt runs the case under sched until the checkpoint at (c.runIdx,
// c.round) fires and returns the captured snapshot.
func killAt(t *testing.T, c compatCase, sched congest.Scheduler) *congest.Snapshot {
	t.Helper()
	k := &checkpoint.Keeper{}
	pol := &congest.CheckpointPolicy{AtRound: c.round, Run: c.runIdx, Sink: k.Sink}
	_, _, err := c.exec(pol, sched)
	if !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("%s: kill at run %d round %d: want ErrCheckpointStop, got %v", c.name, c.runIdx, c.round, err)
	}
	snap, saves := k.Latest()
	if snap == nil || saves != 1 {
		t.Fatalf("%s: %d snapshots delivered", c.name, saves)
	}
	return snap
}

func compatPath(c compatCase) string {
	return filepath.Join("testdata", "compat", c.name+".ckpt")
}

// marshalSansObs encodes s with its observer blob left out.
func marshalSansObs(s *congest.Snapshot) ([]byte, error) {
	c := *s
	c.Obs = nil
	return c.MarshalBinary()
}

// reencodeObs decodes an obs.Recorder blob into a fresh Recorder and
// encodes it again.
func reencodeObs(blob []byte) ([]byte, error) {
	rec := obs.NewRecorder()
	if err := congest.Unmarshal(blob, rec); err != nil {
		return nil, err
	}
	return congest.Marshal(rec)
}

func TestCheckpointFixtureCompat(t *testing.T) {
	for _, c := range compatCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := compatPath(c)
			if _, err := os.Stat(path); os.IsNotExist(err) && *updateCompat {
				snap := killAt(t, c, congest.SchedulerActive)
				meta := &checkpoint.Meta{
					Alg: c.alg, N: c.g.N(), M: c.g.M(), Graph: checkpoint.Fingerprint(c.g),
					Sources: c.sources, H: c.h, Plan: c.plan,
				}
				if err := checkpoint.Save(path, meta, snap); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}

			meta, snap, err := checkpoint.Load(path)
			if err != nil {
				t.Fatalf("%v (a missing fixture is written by -update-compat; an existing one is never rewritten)", err)
			}
			if err := meta.ValidateAgainst(c.g, c.sources, c.h, c.plan); err != nil {
				t.Fatal(err)
			}
			if snap.RunIdx != c.runIdx || snap.Round != c.round {
				t.Fatalf("fixture snapshot at run %d round %d, want run %d round %d", snap.RunIdx, snap.Round, c.runIdx, c.round)
			}
			if c.obs != (len(snap.Obs) > 0) {
				t.Fatalf("fixture observer blob is %d bytes, want obs=%v", len(snap.Obs), c.obs)
			}

			base, baseStats, err := c.exec(nil, congest.SchedulerDense)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			fixBytes, err := marshalSansObs(snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range schedulers {
				// (a) The fixture must resume bit-exactly: same results and
				// logical Stats as an uninterrupted run.
				res, stats, err := c.exec(&congest.CheckpointPolicy{Resume: snap}, sched)
				if err != nil {
					t.Fatalf("sched=%v: resume from fixture: %v", sched, err)
				}
				if stats != baseStats {
					t.Fatalf("sched=%v: resumed stats diverge: %+v vs %+v", sched, stats, baseStats)
				}
				if !reflect.DeepEqual(res, base) {
					t.Fatalf("sched=%v: resumed results diverge from uninterrupted run", sched)
				}

				// (b) The current engine, killed at the same barrier, must
				// produce byte-identical snapshot bytes — format stability
				// in the write direction, not just the read direction.
				cur, err := marshalSansObs(killAt(t, c, sched))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cur, fixBytes) {
					t.Fatalf("sched=%v: snapshot bytes drifted from the fixture: %d vs %d bytes (diff starts at offset %d)",
						sched, len(cur), len(fixBytes), firstDiff(cur, fixBytes))
				}
			}
			if c.obs {
				again, err := reencodeObs(snap.Obs)
				if err != nil {
					t.Fatalf("observer blob: %v", err)
				}
				if !bytes.Equal(again, snap.Obs) {
					t.Fatalf("observer blob does not re-encode byte-exactly (diff starts at offset %d)", firstDiff(again, snap.Obs))
				}
			}
		})
	}
}

// TestCheckpointRefusesVersion1: the version 1 layout also carried the
// scheduler, its wake rounds, the quiescence cache and the in-flight
// count; the version 2 layout also carried the fault network's mode flag,
// event log and per-message queue keys; the version 3 layout also carried
// the fault network's flight cursor and a physical drop counter. A file
// of any of them is refused by name before its body is read.
func TestCheckpointRefusesVersion1(t *testing.T) {
	meta, snap, err := checkpoint.Load(compatPath(compatCases()[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 3} {
		snap.Version = v
		path := filepath.Join(t.TempDir(), "old.ckpt")
		if err := checkpoint.Save(path, meta, snap); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("snapshot version %d, want %d", v, congest.SnapshotVersion)
		if _, _, err := checkpoint.Load(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d file: err = %v, want a refusal naming the version", v, err)
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestCheckpointFixtureRoundTripFile proves the container round-trips
// through the file layer byte-for-byte: load + re-save must reproduce an
// identical snapshot body.
func TestCheckpointFixtureRoundTripFile(t *testing.T) {
	for _, c := range compatCases() {
		_, snap, err := checkpoint.Load(compatPath(c))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b1, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		snap2 := &congest.Snapshot{}
		if err := snap2.UnmarshalBinary(b1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b2, err := snap2.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: snapshot does not round-trip byte-exactly", c.name)
		}
	}
}

// TestCheckpointBitFlipSweep flips one bit at every byte offset (bit
// offset mod 8) of every committed fixture: Load must refuse each file as
// corrupt. The unsealed version 1 layout the fixtures had before they were
// re-sealed resumed to wrong distances under many such flips.
func TestCheckpointBitFlipSweep(t *testing.T) {
	flipped := filepath.Join(t.TempDir(), "flip.ckpt")
	flips := 0
	for _, c := range compatCases() {
		raw, err := os.ReadFile(compatPath(c))
		if err != nil {
			t.Fatal(err)
		}
		for off := range raw {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 1 << (off % 8)
			if err := os.WriteFile(flipped, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := checkpoint.Load(flipped); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("%s: bit flip at byte %d of %d: err = %v, want checkpoint.ErrCorrupt", c.name, off, len(raw), err)
			}
			flips++
		}
	}
	t.Logf("%d bit flips refused", flips)
}
