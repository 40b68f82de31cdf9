package apsp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/posweight"
	"repro/internal/scaling"
	"repro/internal/shortrange"
)

// These tests differentially verify the active-set scheduler against the
// dense engine: identical distances, parents, Stats (rounds, messages,
// congestion, max words, node sends) and schedule diagnostics over the
// randomized difftest families, plus observer-event-stream equality on a
// 64-node BlockerAPSP run. A divergence here means some NextWake lies about
// its protocol's schedule — the Waker contract makes that an equivalence
// failure, not a slowdown.

func cmpStats(dense, active congest.Stats) error {
	if dense != active {
		return fmt.Errorf("stats diverge: dense %+v, active %+v", dense, active)
	}
	return nil
}

// cmpErr compares the two runs' error outcomes. Both failing identically is
// equivalence too (e.g. MaxRounds on a pathological instance); done reports
// that the comparison is finished either way.
func cmpErr(dense, active error) (done bool, err error) {
	if (dense != nil) != (active != nil) {
		return true, fmt.Errorf("error divergence: dense %v, active %v", dense, active)
	}
	if dense != nil {
		if dense.Error() != active.Error() {
			return true, fmt.Errorf("error text divergence: dense %q, active %q", dense, active)
		}
		return true, nil
	}
	return false, nil
}

func TestSchedulerEquivalenceCore(t *testing.T) {
	// One subtest, named as before: the lenient ≥ rule is core's only send
	// rule, and the name keeps the sweep's identity stable.
	t.Run("strict=false", func(t *testing.T) {
		difftest.Search(t, difftest.Space{SeedsPerSize: 8}, func(in difftest.Instance) error {
			mk := func(s congest.Scheduler) (*core.Result, error) {
				return core.Run(in.G, core.Opts{
					Sources: in.Sources, H: in.H,
					SnapshotRounds: []int{2, 5},
					Engine:         congest.Config{Scheduler: s},
				})
			}
			d, derr := mk(congest.SchedulerDense)
			a, aerr := mk(congest.SchedulerActive)
			if done, err := cmpErr(derr, aerr); done {
				return err
			}
			if err := cmpStats(d.Stats, a.Stats); err != nil {
				return err
			}
			if !reflect.DeepEqual(d.Dist, a.Dist) || !reflect.DeepEqual(d.Hops, a.Hops) || !reflect.DeepEqual(d.Parent, a.Parent) {
				return fmt.Errorf("results diverge")
			}
			if !reflect.DeepEqual(d.Snapshots, a.Snapshots) {
				return fmt.Errorf("snapshots diverge: dense %v, active %v", d.Snapshots, a.Snapshots)
			}
			if d.LateSends != a.LateSends || d.Collisions != a.Collisions {
				return fmt.Errorf("schedule diagnostics diverge: dense (late=%d coll=%d), active (late=%d coll=%d)",
					d.LateSends, d.Collisions, a.LateSends, a.Collisions)
			}
			return nil
		})
	})
}

func TestSchedulerEquivalencePosweight(t *testing.T) {
	for _, strict := range []bool{false, true} {
		strict := strict
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			difftest.Search(t, difftest.Space{SeedsPerSize: 8, ZeroFrac: -1}, func(in difftest.Instance) error {
				mk := func(s congest.Scheduler) (*posweight.Result, error) {
					return posweight.Run(in.G, posweight.Opts{Sources: in.Sources, Strict: strict, Engine: congest.Config{Scheduler: s}})
				}
				d, derr := mk(congest.SchedulerDense)
				a, aerr := mk(congest.SchedulerActive)
				if done, err := cmpErr(derr, aerr); done {
					return err
				}
				if err := cmpStats(d.Stats, a.Stats); err != nil {
					return err
				}
				if !reflect.DeepEqual(d.Dist, a.Dist) || !reflect.DeepEqual(d.Parent, a.Parent) {
					return fmt.Errorf("results diverge")
				}
				if d.LateSends != a.LateSends || d.MissedSends != a.MissedSends {
					return fmt.Errorf("diagnostics diverge: dense (late=%d missed=%d), active (late=%d missed=%d)",
						d.LateSends, d.MissedSends, a.LateSends, a.MissedSends)
				}
				// In lenient mode the family is correct unrestricted SSSP,
				// so the schedulers must not just agree with each other but
				// with the parallel reference backend. Strict mode is the
				// literature's rule that zero-weight edges break (the
				// paper's Sec. II motivation) — wrong distances there are
				// the documented behavior, not a scheduler bug.
				if !strict {
					if err := difftest.SSSPOracle(in, d.Dist); err != nil {
						return fmt.Errorf("dense vs reference backend: %v", err)
					}
				}
				return nil
			})
		})
	}
}

func TestSchedulerEquivalenceShortRange(t *testing.T) {
	difftest.Search(t, difftest.Space{SeedsPerSize: 8}, func(in difftest.Instance) error {
		mk := func(s congest.Scheduler) (*shortrange.Result, error) {
			return shortrange.Run(in.G, shortrange.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Scheduler: s}})
		}
		d, derr := mk(congest.SchedulerDense)
		a, aerr := mk(congest.SchedulerActive)
		if done, err := cmpErr(derr, aerr); done {
			return err
		}
		if err := cmpStats(d.Stats, a.Stats); err != nil {
			return err
		}
		if !reflect.DeepEqual(d.Dist, a.Dist) || !reflect.DeepEqual(d.Hops, a.Hops) || !reflect.DeepEqual(d.Snap, a.Snap) {
			return fmt.Errorf("results diverge")
		}
		return nil
	})
}

func TestSchedulerEquivalenceBellman(t *testing.T) {
	difftest.Search(t, difftest.Space{SeedsPerSize: 8}, func(in difftest.Instance) error {
		mk := func(s congest.Scheduler) (*bellman.Result, error) {
			return bellman.Run(in.G, bellman.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Scheduler: s}})
		}
		d, derr := mk(congest.SchedulerDense)
		a, aerr := mk(congest.SchedulerActive)
		if done, err := cmpErr(derr, aerr); done {
			return err
		}
		if err := cmpStats(d.Stats, a.Stats); err != nil {
			return err
		}
		if !reflect.DeepEqual(d.Dist, a.Dist) || !reflect.DeepEqual(d.Parent, a.Parent) {
			return fmt.Errorf("results diverge")
		}
		return nil
	})
}

func TestSchedulerEquivalenceScaling(t *testing.T) {
	difftest.Search(t, difftest.Space{SeedsPerSize: 6}, func(in difftest.Instance) error {
		mk := func(s congest.Scheduler) (*scaling.Result, error) {
			return scaling.Run(in.G, scaling.Opts{Sources: in.Sources, Engine: congest.Config{Scheduler: s}})
		}
		d, derr := mk(congest.SchedulerDense)
		a, aerr := mk(congest.SchedulerActive)
		if done, err := cmpErr(derr, aerr); done {
			return err
		}
		if err := cmpStats(d.Stats, a.Stats); err != nil {
			return err
		}
		if !reflect.DeepEqual(d.Dist, a.Dist) {
			return fmt.Errorf("results diverge")
		}
		// Scaling is exact and unrestricted: pin both schedulers to the
		// parallel reference backend, not just to each other.
		if err := difftest.SSSPOracle(in, d.Dist); err != nil {
			return fmt.Errorf("dense vs reference backend: %v", err)
		}
		return nil
	})
}

// streamRecorder captures the engine event streams that must be
// bit-identical across schedulers. RoundEvent.Elapsed is wall clock and is
// excluded; LinkPeak is excluded because its emission order within one
// sender's batch follows map iteration in the blocker protocol's queue
// flush, which is not deterministic even under a single scheduler.
type streamRecorder struct {
	rounds []congest.RoundEvent
	sends  [][3]int
	runs   int
}

func (s *streamRecorder) RunStart(int) { s.runs++ }
func (s *streamRecorder) RoundDone(e congest.RoundEvent) {
	e.Elapsed = 0
	s.rounds = append(s.rounds, e)
}
func (s *streamRecorder) NodeSends(r, v, m int)       { s.sends = append(s.sends, [3]int{r, v, m}) }
func (s *streamRecorder) LinkPeak(int, int, int, int) {}
func (s *streamRecorder) RunDone(congest.Stats)       {}

func TestSchedulerEquivalenceObserverStreamBlockerAPSP(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node APSP")
	}
	g := graph.Random(64, 256, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.2, Directed: true})
	run := func(s congest.Scheduler) (*hssp.Result, *streamRecorder) {
		rec := &streamRecorder{}
		res, err := hssp.Run(g, hssp.Opts{Engine: congest.Config{Scheduler: s, Observer: rec}})
		if err != nil {
			t.Fatalf("scheduler %d: %v", s, err)
		}
		return res, rec
	}
	dres, drec := run(congest.SchedulerDense)
	ares, arec := run(congest.SchedulerActive)
	if dres.Stats != ares.Stats {
		t.Fatalf("stats diverge: dense %+v, active %+v", dres.Stats, ares.Stats)
	}
	if !reflect.DeepEqual(dres.Dist, ares.Dist) || !reflect.DeepEqual(dres.Q, ares.Q) {
		t.Fatal("results diverge")
	}
	if drec.runs != arec.runs {
		t.Fatalf("engine run count diverges: dense %d, active %d", drec.runs, arec.runs)
	}
	if len(drec.rounds) != len(arec.rounds) {
		t.Fatalf("RoundDone stream length diverges: dense %d, active %d", len(drec.rounds), len(arec.rounds))
	}
	for i := range drec.rounds {
		if drec.rounds[i] != arec.rounds[i] {
			t.Fatalf("RoundDone[%d] diverges: dense %+v, active %+v", i, drec.rounds[i], arec.rounds[i])
		}
	}
	if !reflect.DeepEqual(drec.sends, arec.sends) {
		t.Fatal("NodeSends stream diverges")
	}
}
