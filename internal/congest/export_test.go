package congest

import "repro/internal/graph"

// ForceFork makes every round of every run fork into width goroutines
// (capped by Config.Workers and by the round's work list), whatever its
// measured work and GOMAXPROCS, until the returned stop is called. stop
// reports how many rounds forked meanwhile. The determinism tests use it:
// on their small graphs the cost rule alone would never fork, and under
// -cpu 1 the GOMAXPROCS cap never would.
func ForceFork(width int) (stop func() int64) {
	f := &forcedFork{width: width}
	forced.Store(f)
	return func() int64 {
		forced.Store(nil)
		return f.forks.Load()
	}
}

// Stepper drives an engine one round at a time. Test-only: the allocation
// guards and worker-adaptivity benchmarks need to execute individual
// rounds inside testing.AllocsPerRun / b.N loops, which the all-in-one Run
// entry point cannot do.
type Stepper struct {
	e *engine
	r int
}

// NewStepper builds and Init-s an engine on fresh planes without starting
// the round loop.
func NewStepper(g *graph.Graph, mk func(v int) Node, cfg Config) (*Stepper, error) {
	cfg = cfg.withDefaults()
	e := allocEngine(g, cfg.Scheduler)
	if err := e.start(g, mk, cfg); err != nil {
		return nil, err
	}
	return &Stepper{e: e}, nil
}

// RunFresh is Run on freshly allocated planes, never a pooled engine's:
// the reference the recycling tests compare every recycled run with.
func RunFresh(g *graph.Graph, mk func(v int) Node, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	return allocEngine(g, cfg.Scheduler).run(g, mk, cfg)
}

// StepRound executes the next round (idle rounds included — no
// fast-forward, so round numbering matches the dense engine) and reports
// the number of messages sent.
func (s *Stepper) StepRound() (int, error) {
	s.r++
	e := s.e
	dense := e.cfg.Scheduler == SchedulerDense
	if e.net != nil {
		e.collectNet(s.r)
	}
	work := e.allNodes
	if !dense {
		work = e.collectActive(s.r)
		if len(work) == 0 {
			return 0, nil
		}
	}
	sent, _, err := e.step(s.r, work, dense)
	return sent, err
}

// Done reports engine quiescence (all nodes quiescent, nothing in flight).
func (s *Stepper) Done() bool {
	return s.e.quiCount == len(s.e.nodes) && s.e.inflight == 0
}

// Round reports the last executed round.
func (s *Stepper) Round() int { return s.r }
