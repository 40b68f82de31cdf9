// Steady-state allocation guards for the flat message plane: once the
// engine's arenas and the protocols' pools have warmed up, executing a
// round must allocate NOTHING — not in the engine (flat send/receive
// planes, concrete-typed heaps, cached neighbor views) and not in the
// guarded protocol families (pooled payloads, entry freelists, reused
// scratch). These tests are the enforcement behind the ≥2× throughput
// claim in DESIGN.md: an accidental per-message or per-round allocation
// shows up here as a hard failure, not as a slow drift in benchmarks.
//
// The guards run the serial step path (Workers: 1): the parallel path
// allocates its fork/join goroutines by design, which is why the engine
// only forks when a round's measured work is large enough to pay for it.
package congest_test

import (
	"math"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// measureSteadyState warms the engine up for warm rounds, then asserts
// that the next measured rounds allocate zero bytes each and that real
// traffic flowed while measuring (a guard that quiesced early would
// vacuously pass).
func measureSteadyState(t *testing.T, st *congest.Stepper, warm, measured int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		if _, err := st.StepRound(); err != nil {
			t.Fatalf("warmup round %d: %v", st.Round(), err)
		}
		if st.Done() {
			t.Fatalf("engine quiesced during warmup (round %d): workload too small for a steady-state guard", st.Round())
		}
	}
	sent := 0
	var stepErr error
	avg := testing.AllocsPerRun(measured, func() {
		if stepErr != nil {
			return
		}
		n, err := st.StepRound()
		sent += n
		stepErr = err
	})
	if stepErr != nil {
		t.Fatalf("measured round %d: %v", st.Round(), stepErr)
	}
	if sent == 0 {
		t.Fatalf("no messages sent during the measured window ending at round %d: not a steady-state measurement", st.Round())
	}
	if avg != 0 {
		t.Fatalf("%.2f allocations per steady-state round, want 0 (%d messages over the window)", avg, sent)
	}
}

func schedulers() []struct {
	name  string
	sched congest.Scheduler
} {
	return []struct {
		name  string
		sched congest.Scheduler
	}{
		{"dense", congest.SchedulerDense},
		{"active", congest.SchedulerActive},
	}
}

// TestAllocFreeRoundsBellman guards the Bellman–Ford family. The ring
// keeps the run busy for a long time — each source's relaxation wave
// advances one hop per block, so nodes keep improving and re-broadcasting
// for ~n blocks — and with the pooled *estimate payload every round must
// be allocation-free on both schedulers.
func TestAllocFreeRoundsBellman(t *testing.T) {
	g := graph.Ring(128, graph.GenOpts{Seed: 11, MaxW: 64, MinW: 1})
	for _, sc := range schedulers() {
		t.Run(sc.name, func(t *testing.T) {
			sources := []int{0, 31, 67, 101}
			opts := bellman.Opts{Sources: sources, H: 127}
			st, err := congest.NewStepper(g, bellman.NewNode(&opts), congest.Config{Workers: 1, Scheduler: sc.sched})
			if err != nil {
				t.Fatal(err)
			}
			measureSteadyState(t, st, 40, 60)
		})
	}
}

// TestAllocFreeRoundsPipelined guards the paper's pipelined (h,k)-SSP
// family: pooled *wire payloads, the Prealloc'd entry freelist, reused
// scratch slices and the concrete-typed send heap together make the
// receive→insert→send cycle allocation-free — with Prealloc covering the
// run's peak entry demand, from the very first round, not just after a
// warmup plateau.
func TestAllocFreeRoundsPipelined(t *testing.T) {
	g := graph.Random(64, 384, graph.GenOpts{Seed: 7, MaxW: 512, MinW: 1, Directed: true})
	delta := graph.Delta(g)
	for _, sc := range schedulers() {
		t.Run(sc.name, func(t *testing.T) {
			opts := core.Opts{Sources: []int{0, 16, 32, 48}, H: 63, Delta: delta, Prealloc: 512}
			st, err := congest.NewStepper(g, core.NewNode(&opts), congest.Config{Workers: 1, Scheduler: sc.sched})
			if err != nil {
				t.Fatal(err)
			}
			measureSteadyState(t, st, 60, 80)
		})
	}
}

// onceNode broadcasts one shared payload in round 1 and is quiescent from
// then on.
type onceNode struct{ sent bool }

var onePayload congest.Payload = intWord(1)

func (o *onceNode) Init(*congest.Context) { o.sent = false }
func (o *onceNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	if !o.sent {
		o.sent = true
		ctx.Broadcast(onePayload)
	}
}
func (o *onceNode) Quiescent() bool { return o.sent }
func (o *onceNode) NextWake() int   { return everyRound(o.Quiescent()) }

// everyRound is the NextWake of a test node without a send schedule: it is
// stepped every round until it is quiescent, and then only on a receive.
func everyRound(quiescent bool) int {
	if quiescent {
		return congest.WakeOnReceive
	}
	return 0
}

// TestRunAllocsIndependentOfSize guards plane recycling: a repeated Run on
// one graph takes its planes from the previous run, so what it allocates
// is a constant of the engine, not a function of n. The nodes are reused
// too, so the trivial protocol adds nothing. Each size keeps the cheapest
// of several single runs: the pool may drop an engine at a collection
// (and, under the race detector, at random), and a fresh one only adds.
func TestRunAllocsIndependentOfSize(t *testing.T) {
	base := -1.0
	for _, n := range []int{64, 512} {
		g := graph.Ring(n, graph.GenOpts{Seed: 3})
		nodes := make([]onceNode, n)
		mk := func(v int) congest.Node { return &nodes[v] }
		allocs := math.Inf(1)
		for try := 0; try < 10; try++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				st, err := congest.Run(g, mk, congest.Config{Workers: 1})
				if err != nil || st.Messages != int64(2*n) {
					t.Fatalf("n=%d: %+v, %v", n, st, err)
				}
			}))
		}
		fresh := testing.AllocsPerRun(1, func() {
			if _, err := congest.RunFresh(g, mk, congest.Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %v allocations recycled, %v fresh", n, allocs, fresh)
		if allocs >= fresh {
			t.Errorf("n=%d: a recycled run makes %v allocations, a fresh one %v: the planes were not recycled", n, allocs, fresh)
		}
		if base < 0 {
			base = allocs
		}
		if allocs != base {
			t.Errorf("n=%d: a recycled run makes %v allocations, n=64 made %v", n, allocs, base)
		}
	}
}
