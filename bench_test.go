package apsp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/experiments"
	fam "repro/internal/family"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/httpfault"
	"repro/internal/key"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// Every table and figure of the paper has a benchmark that regenerates it
// (at reduced size; run cmd/apspbench for the full sweep). The benchmarks
// double as regression detectors: each experiment validates its algorithms
// against the sequential oracle internally and fails on any wrong distance.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Config{Small: true, Seed: 1}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable1ExactAPSP regenerates Table I's exact-APSP comparison
// (experiment T1-exact).
func BenchmarkTable1ExactAPSP(b *testing.B) { benchExperiment(b, "T1-exact") }

// BenchmarkTable1ApproxAPSP regenerates Table I's (1+ε)-APSP comparison
// (experiment T1-approx).
func BenchmarkTable1ApproxAPSP(b *testing.B) { benchExperiment(b, "T1-approx") }

// BenchmarkFig1CSSSP regenerates Figure 1's phenomenon and the CSSSP
// repair (experiment F1).
func BenchmarkFig1CSSSP(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkThmI1Rounds sweeps (h,k,Δ) against Theorem I.1's bound
// (experiment E-T11).
func BenchmarkThmI1Rounds(b *testing.B) { benchExperiment(b, "E-T11") }

// BenchmarkInvariantAudit audits Invariants 1–2 / Lemma II.11
// (experiment E-INV).
func BenchmarkInvariantAudit(b *testing.B) { benchExperiment(b, "E-INV") }

// BenchmarkShortRange measures Algorithm 2's dilation and congestion
// claims (experiment E-SR, Lemma II.15).
func BenchmarkShortRange(b *testing.B) { benchExperiment(b, "E-SR") }

// BenchmarkCSSSP verifies Definition III.3 and Lemma III.5's cost
// (experiment E-CSSSP).
func BenchmarkCSSSP(b *testing.B) { benchExperiment(b, "E-CSSSP") }

// BenchmarkBlockerSet measures blocker sizes and Algorithm 4's cost
// (experiment E-BLK).
func BenchmarkBlockerSet(b *testing.B) { benchExperiment(b, "E-BLK") }

// BenchmarkThmI2I3Crossover sweeps W for the Corollary I.4 crossover
// (experiment E-T1213).
func BenchmarkThmI2I3Crossover(b *testing.B) { benchExperiment(b, "E-T1213") }

// BenchmarkApproxAPSP sweeps ε for Theorem I.5 (experiment E-APX).
func BenchmarkApproxAPSP(b *testing.B) { benchExperiment(b, "E-APX") }

// BenchmarkZeroWeightAblation measures the classical schedule's failure on
// zero weights (experiment A-ZERO).
func BenchmarkZeroWeightAblation(b *testing.B) { benchExperiment(b, "A-ZERO") }

// BenchmarkMultiEntryAblation compares multi-entry lists against the
// single-estimate pipeline (experiment A-LIST).
func BenchmarkMultiEntryAblation(b *testing.B) { benchExperiment(b, "A-LIST") }

// BenchmarkPaperLiteralAblation measures the paper-literal list rules
// against the Pareto discipline (experiment A-LIT).
func BenchmarkPaperLiteralAblation(b *testing.B) { benchExperiment(b, "A-LIT") }

// BenchmarkScalingExtension measures the implemented future work —
// pipelining + Gabow scaling (experiment E-SCALE).
func BenchmarkScalingExtension(b *testing.B) { benchExperiment(b, "E-SCALE") }

// BenchmarkKSSPSweep measures the k-SSP bounds (Theorem I.1(iii) and
// friends) across source counts (experiment E-KSSP).
func BenchmarkKSSPSweep(b *testing.B) { benchExperiment(b, "E-KSSP") }

// BenchmarkSchedulerComparison compares the deterministic γ-schedule with
// Ghaffari-style random-delay scheduling (experiment E-SCHED).
func BenchmarkSchedulerComparison(b *testing.B) { benchExperiment(b, "E-SCHED") }

// BenchmarkConvergence measures Algorithm 1's anytime behaviour
// (experiment E-CONV).
func BenchmarkConvergence(b *testing.B) { benchExperiment(b, "E-CONV") }

// BenchmarkStep1Ablation compares CSSSP construction via Algorithm 1
// against the Θ(n·h) Bellman–Ford method of [3] (experiment E-STEP1).
func BenchmarkStep1Ablation(b *testing.B) { benchExperiment(b, "E-STEP1") }

// BenchmarkScorecard runs the per-claim verdict table (experiment
// SCORECARD).
func BenchmarkScorecard(b *testing.B) { benchExperiment(b, "SCORECARD") }

// BenchmarkScalingStudy measures rounds vs n at reduced size (experiment
// E-BIG; cmd/apspbench runs it up to n=256).
func BenchmarkScalingStudy(b *testing.B) { benchExperiment(b, "E-BIG") }

// BenchmarkDeltaSensitivity probes the Δ promise Theorem I.1 assumes
// (experiment E-DELTA).
func BenchmarkDeltaSensitivity(b *testing.B) { benchExperiment(b, "E-DELTA") }

// BenchmarkChaosResilience runs the serving-layer resilience drill:
// closed-loop load through the fault injector with the retrying client,
// plus an abrupt kill + autosave recovery (experiment E-CHAOS).
func BenchmarkChaosResilience(b *testing.B) { benchExperiment(b, "E-CHAOS") }

// BenchmarkClusterResilience runs the multi-process cluster drill:
// scatter-gather routing, a backend kill under chaos, and a
// generation-aware rollout, all differentially validated
// (experiment E-CLUSTER).
func BenchmarkClusterResilience(b *testing.B) { benchExperiment(b, "E-CLUSTER") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the substrate's raw cost, with rounds reported as a
// custom metric so scaling is visible in benchmark output.

func benchPipelinedAPSP(b *testing.B, n int) {
	g := graph.Random(n, 3*n, graph.GenOpts{Seed: 1, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	delta := graph.Delta(g)
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := core.APSP(g, delta)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkPipelinedAPSP_n16(b *testing.B) { benchPipelinedAPSP(b, 16) }
func BenchmarkPipelinedAPSP_n32(b *testing.B) { benchPipelinedAPSP(b, 32) }
func BenchmarkPipelinedAPSP_n64(b *testing.B) { benchPipelinedAPSP(b, 64) }

func BenchmarkHKSSPZeroHeavy(b *testing.B) {
	g := graph.ZeroHeavy(48, 192, 0.5, graph.GenOpts{Seed: 2, MaxW: 8, Directed: true})
	sources := []int{0, 12, 24, 36}
	delta := graph.HHopDelta(g, sources, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, core.Opts{Sources: sources, H: 8, Delta: delta}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyCmp(b *testing.B) {
	gamma := key.New(64, 63, 497)
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += gamma.Cmp(int64(i%497), int64(i%63), int64((i+13)%497), int64((i+7)%63))
	}
	_ = acc
}

func BenchmarkKeyCeilKappa(b *testing.B) {
	gamma := key.New(64, 63, 497)
	b.ResetTimer()
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += gamma.CeilKappa(int64(i%497), int64(i%63))
	}
	_ = acc
}

func BenchmarkEngineFloodRound(b *testing.B) {
	// One full unweighted APSP on a mid-size graph: engine throughput.
	g := graph.Random(96, 384, graph.GenOpts{Seed: 3, MaxW: 1, MinW: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnweightedAPSP(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Random(128, 512, graph.GenOpts{Seed: int64(i), MaxW: 16, ZeroFrac: 0.2, Directed: true})
	}
}

func benchEngineWorkers(b *testing.B, workers int, mkObs func() congest.Observer) {
	g := graph.Random(96, 384, graph.GenOpts{Seed: 5, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	delta := graph.Delta(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := make([]int, g.N())
		for v := range sources {
			sources[v] = v
		}
		var o congest.Observer
		if mkObs != nil {
			o = mkObs()
		}
		if _, err := core.Run(g, core.Opts{Sources: sources, H: g.N() - 1, Delta: delta, Engine: congest.Config{Workers: workers, Observer: o}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWorkers* measure the engine's intra-round parallel
// speedup (results are bit-identical across worker counts; see
// TestDeterministicAcrossWorkers* in internal/congest). They run with no
// observer — the engine's nil-observer fast path — and are the baseline
// for the guard below.
func BenchmarkEngineWorkers1(b *testing.B) { benchEngineWorkers(b, 1, nil) }
func BenchmarkEngineWorkers4(b *testing.B) { benchEngineWorkers(b, 4, nil) }
func BenchmarkEngineWorkers8(b *testing.B) { benchEngineWorkers(b, 8, nil) }

// BenchmarkEngineWorkers*Observed run the identical workload with a full
// obs.Recorder attached (no sinks). Comparing against the unobserved
// variants bounds the instrumentation's cost; the nil-observer variants
// themselves must stay within noise of the pre-observer engine.
func BenchmarkEngineWorkers1Observed(b *testing.B) {
	benchEngineWorkers(b, 1, func() congest.Observer { return obs.NewRecorder() })
}
func BenchmarkEngineWorkers8Observed(b *testing.B) {
	benchEngineWorkers(b, 8, func() congest.Observer { return obs.NewRecorder() })
}

// BenchmarkComputeBackend* is the CONGEST-vs-centralized pair: the same
// saturated all-sources APSP instance through the simulated engine and
// through internal/compute's kernel at 8 workers. BENCH_engine.json
// gates each one's allocation budget like every other entry; how much
// faster the kernel is is a ledger question (sim_apsp's op_ms against
// rebuild_*'s compute.apsp_s, benchmark/README.md).
func benchComputeBackend(b *testing.B, run func(g *graph.Graph, sources []int) error) {
	n := 128
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	sources := make([]int, n)
	for v := range sources {
		sources[v] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(g, sources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeBackendEngine8(b *testing.B) {
	benchComputeBackend(b, func(g *graph.Graph, sources []int) error {
		_, err := core.Run(g, core.Opts{Sources: sources, H: g.N() - 1, Engine: congest.Config{Workers: 8}})
		return err
	})
}

func BenchmarkComputeBackendDijkstra8(b *testing.B) {
	benchComputeBackend(b, func(g *graph.Graph, sources []int) error {
		_, err := compute.APSP(g, compute.Opts{Workers: 8})
		return err
	})
}

// benchEngineWorkersAdaptive runs the sparse active-set workload (most
// rounds step only a handful of nodes) at a given Workers setting. The
// engine sizes its fork to the round being stepped — one worker per 100 µs
// of predicted node-step time, serial below two — so the 8-worker variant
// must match the 1-worker variant here: a high Workers cap costs nothing
// on rounds too cheap to parallelize. A static fork (or the old whole-graph
// n<128 cutoff) would pay goroutine fork/join on thousands of near-empty
// rounds.
func benchEngineWorkersAdaptive(b *testing.B, workers int) {
	n := 256
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 9, MaxW: 4096, MinW: 1, Directed: true})
	delta := graph.Delta(g)
	sources := []int{0, 64, 128, 192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: delta, Engine: congest.Config{Scheduler: congest.SchedulerActive, Workers: workers}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWorkersAdaptive1(b *testing.B) { benchEngineWorkersAdaptive(b, 1) }
func BenchmarkEngineWorkersAdaptive8(b *testing.B) { benchEngineWorkersAdaptive(b, 8) }

// BenchmarkEngineComposition runs Algorithm 3 (hssp.Run, H: 4) on the
// sim_blocker family at n = 48: ~100 short engine runs on one
// communication graph, alternating it with its reverse, with Step 4's
// gather and pipelined broadcast on top. Its B/op and allocs/op are the
// per-run set-up the engine recycles across a composition and the
// relaying the tree primitives do; every answer is checked against
// graph.APSP.
func BenchmarkEngineComposition(b *testing.B) {
	n := 48
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true})
	ref := graph.APSP(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hssp.Run(g, hssp.Opts{H: 4})
		if err != nil {
			b.Fatal(err)
		}
		for s, row := range res.Dist {
			for v, d := range row {
				if d != ref[s][v] {
					b.Fatalf("d(%d,%d) = %d, want %d", s, v, d, ref[s][v])
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scheduler benchmarks: dense (every node stepped every round) vs the
// active-set scheduler, on the two activity extremes. Both produce
// bit-identical results and Stats (see TestSchedulerEquivalence*); only wall
// clock may differ.

// benchSchedulerSparse runs Algorithm 1 (k-SSP instantiation, 4 sources) on
// a 256-node bounded-weight graph with Δ = 4096. The γ-schedule stretches
// over thousands of rounds proportional to the distance values while each
// node only ever broadcasts ~k estimates, so in most rounds almost every
// node is idle — the workload the active-set scheduler exists for. (With all
// n sources the per-round Pareto-merge work dominates and both schedulers
// cost the same; sparse activity, not source count, is what the scheduler
// exploits.) One worker: the pair compares schedulers, and with two Ps
// either one could fork the rounds whose measured work pays for it, a
// timing-dependent 5 allocations each.
func benchSchedulerSparse(b *testing.B, s congest.Scheduler) {
	n := 256
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 9, MaxW: 4096, MinW: 1, Directed: true})
	delta := graph.Delta(g)
	sources := []int{0, 64, 128, 192}
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: delta, Engine: congest.Config{Scheduler: s, Workers: 1}})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkEngineSchedulerSparseDense(b *testing.B) {
	benchSchedulerSparse(b, congest.SchedulerDense)
}
func BenchmarkEngineSchedulerSparseActive(b *testing.B) {
	benchSchedulerSparse(b, congest.SchedulerActive)
}

// benchSchedulerBusy runs unweighted flooding-style APSP where nearly every
// node receives in nearly every round, so the active set is almost the whole
// graph and the scheduler's bookkeeping is pure overhead. The active variant
// must stay within a few percent of dense here.
func benchSchedulerBusy(b *testing.B, s congest.Scheduler) {
	n := 96
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 9, MaxW: 1, MinW: 1})
	sources := make([]int, n)
	for v := range sources {
		sources[v] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: 1, Engine: congest.Config{Scheduler: s, Workers: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSchedulerBusyDense(b *testing.B) {
	benchSchedulerBusy(b, congest.SchedulerDense)
}
func BenchmarkEngineSchedulerBusyActive(b *testing.B) {
	benchSchedulerBusy(b, congest.SchedulerActive)
}

// ---------------------------------------------------------------------------
// Fault-layer benchmarks: what the adversarial-delivery shim costs. Disabled
// (Network == nil) is the production configuration and must match the plain
// scheduler benchmarks — the nil path adds no work per round. Perfect runs
// the reliability barrier with no faults (pure shim bookkeeping); All pays
// for retransmits, duplicate suppression and delay queues under the standard
// chaos plan. Results are asserted bit-identical to the fault-free run, so
// these double as a conformance gate. Workers: 1 here and in the checkpoint
// set below, as in the scheduler pairs: a gated benchmark does not inherit
// GOMAXPROCS.

func benchEngineFaults(b *testing.B, mk func() congest.Network) {
	n := 96
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 9, MaxW: 1, MinW: 1})
	sources := []int{0, 24, 48, 72}
	base, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: 1, Engine: congest.Config{Network: mk(), Workers: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats != base.Stats {
			b.Fatalf("logical stats diverged under faults: %+v vs %+v", res.Stats, base.Stats)
		}
	}
}

func BenchmarkEngineFaultsDisabled(b *testing.B) {
	benchEngineFaults(b, func() congest.Network { return nil })
}
func BenchmarkEngineFaultsPerfect(b *testing.B) {
	benchEngineFaults(b, func() congest.Network { return faults.New(faults.Plan{}) })
}
func BenchmarkEngineFaultsAll(b *testing.B) {
	benchEngineFaults(b, func() congest.Network { return faults.New(faults.All(11)) })
}

// ---------------------------------------------------------------------------
// Checkpoint benchmarks: what the engine's snapshot hook costs. Off is the
// production configuration (Checkpoint == nil, no per-round work beyond a
// nil check) and must match the plain engine benchmarks. OnSignal carries
// an armed policy that never fires — the steady-state cost of being
// resumable. EveryRound serializes a full engine snapshot at every
// barrier, the worst case.

func benchEngineCheckpoint(b *testing.B, mkPol func() *congest.CheckpointPolicy) {
	n := 96
	g := graph.Random(n, 4*n, graph.GenOpts{Seed: 9, MaxW: 1, MinW: 1})
	sources := []int{0, 24, 48, 72}
	base, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var snapBytes int
	for i := 0; i < b.N; i++ {
		pol := mkPol()
		res, err := core.Run(g, core.Opts{Sources: sources, H: n - 1, Delta: 1, Engine: congest.Config{Checkpoint: pol, Workers: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats != base.Stats {
			b.Fatalf("stats diverged under checkpointing: %+v vs %+v", res.Stats, base.Stats)
		}
		if pol != nil && pol.Every > 0 {
			snapBytes = benchLastSnapBytes
		}
	}
	if snapBytes > 0 {
		b.ReportMetric(float64(snapBytes), "snapB")
	}
}

var benchLastSnapBytes int

func BenchmarkEngineCheckpointOff(b *testing.B) {
	benchEngineCheckpoint(b, func() *congest.CheckpointPolicy { return nil })
}
func BenchmarkEngineCheckpointOnSignal(b *testing.B) {
	benchEngineCheckpoint(b, func() *congest.CheckpointPolicy {
		return &congest.CheckpointPolicy{Sink: func(*congest.Snapshot) error { return nil }}
	})
}
func BenchmarkEngineCheckpointEveryRound(b *testing.B) {
	benchEngineCheckpoint(b, func() *congest.CheckpointPolicy {
		return &congest.CheckpointPolicy{Every: 1, Sink: func(s *congest.Snapshot) error {
			raw, err := s.MarshalBinary()
			if err != nil {
				return err
			}
			benchLastSnapBytes = len(raw)
			return nil
		}}
	})
}

// --- Oracle serving layer ---------------------------------------------

// benchOracleState is built once: a warmed n=512 snapshot whose matrices
// come from the sequential oracle (DijkstraTree per source), published
// through a Server so cache keys carry a real generation.
var benchOracleState struct {
	once sync.Once
	snap *oracle.Snapshot
	srv  *oracle.Server
	h    http.Handler
}

func benchOracle(b *testing.B) (*oracle.Snapshot, *oracle.Server, http.Handler) {
	b.Helper()
	benchOracleState.once.Do(func() {
		const n = 512
		g := graph.Random(n, 4*n, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 1, Directed: true})
		sources := make([]int, n)
		dist := make([][]int64, n)
		parent := make([][]int, n)
		for s := 0; s < n; s++ {
			sources[s] = s
			dist[s], parent[s] = graph.DijkstraTree(g, s)
		}
		snap, err := oracle.Build(g, oracle.BuildInput{Alg: "bench", Matrix: fam.FromRows(sources, g.N(), dist, nil, parent)}, oracle.BuildOpts{})
		if err != nil {
			panic(err)
		}
		srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(1 << 16), Met: oracle.NewMetrics()}
		srv.Publish(snap)
		benchOracleState.snap, benchOracleState.srv, benchOracleState.h = snap, srv, srv.Handler()
	})
	return benchOracleState.snap, benchOracleState.srv, benchOracleState.h
}

var benchOracleSink int64

// BenchmarkOracleDist measures warmed point-distance lookups straight off
// the sharded column store — the serving layer's hot path. The acceptance
// bar is ≥ 1M queries/sec on the n=512 snapshot.
func BenchmarkOracleDist(b *testing.B) {
	snap, _, _ := benchOracle(b)
	k, n := uint64(snap.K()), uint64(snap.N())
	var sink int64
	x := uint64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // LCG: cheap, allocation-free pair stream
		sink += snap.DistAt(int((x>>33)%k), int(x%n))
	}
	b.StopTimer()
	benchOracleSink = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkOraclePath measures full path materialization (the validated
// parent walk), uncached.
func BenchmarkOraclePath(b *testing.B) {
	snap, _, _ := benchOracle(b)
	k, n := uint64(snap.K()), uint64(snap.N())
	x := uint64(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		path, err := snap.Path(int((x>>33)%k), int(x%n))
		if err != nil {
			b.Fatal(err)
		}
		benchOracleSink += int64(len(path))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkOracleBatch measures the vectorized endpoint end to end through
// the HTTP handler (request decode → 256 lookups → response encode),
// reporting per-query throughput.
func BenchmarkOracleBatch(b *testing.B) {
	snap, _, handler := benchOracle(b)
	const batch = 256
	type item struct {
		Kind string `json:"kind"`
		Src  int    `json:"src"`
		Dst  int    `json:"dst"`
	}
	queries := make([]item, batch)
	x := uint64(7)
	for i := range queries {
		x = x*6364136223846793005 + 1442695040888963407
		queries[i] = item{Kind: "dist", Src: int((x >> 33) % uint64(snap.K())), Dst: int(x % uint64(snap.N()))}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "queries/s")
}

// handlerTransport is an http.RoundTripper that dispatches straight into
// an http.Handler. It lets the resilient-client benchmarks measure the
// client machinery and the (disabled) fault injector without socket
// noise — the per-op allocation counts stay deterministic, which is what
// lets cmd/benchgate gate them.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// discardSink prices emitting a trace without pricing any one sink.
type discardSink struct{}

func (discardSink) Trace([]trace.SpanRecord) error { return nil }
func (discardSink) Close() error                   { return nil }

// BenchmarkOracleServeDist measures a /dist request end to end through the
// HTTP handler under three tracing configurations plus the resilience
// stack. It is the overhead guard for both the tracing instrumentation
// ("off" — no Tracer wired, the production default — must stay within
// noise of the pre-tracing serving path; compare "unsampled" and
// "sampled" to price the feature) and for the resilient-client path:
// "client-off" is the plain handler loop, "client-on" routes the same
// queries through internal/client wrapping a disabled httpfault injector,
// so the delta prices retries/breaker/hedging bookkeeping on the happy
// path.
func BenchmarkOracleServeDist(b *testing.B) {
	snap, _, _ := benchOracle(b)
	configs := []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"off", nil},
		// Head sampling effectively never fires; spans are still created
		// and discarded at the root — the enabled-but-quiet steady state.
		{"unsampled", trace.New(trace.Options{SampleEvery: 1 << 30, Seed: 1, Sinks: []trace.Sink{discardSink{}}})},
		// Every request is recorded and emitted.
		{"sampled", trace.New(trace.Options{SampleEvery: 1, Seed: 1, Sinks: []trace.Sink{discardSink{}}})},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(1 << 16),
				Met: oracle.NewMetrics(), Tracer: cfg.tracer}
			srv.Publish(snap)
			handler := srv.Handler()
			k, n := uint64(snap.K()), uint64(snap.N())
			x := uint64(555)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				target := fmt.Sprintf("/dist?src=%d&dst=%d", (x>>33)%k, x%n)
				req := httptest.NewRequest("GET", target, nil)
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("dist status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}

	// Resilience-path overhead: the same query stream through the bare
	// handler ("client-off") and through internal/client over a disabled
	// httpfault injector ("client-on"); the in-process transport keeps
	// both alloc-deterministic for the bench gate.
	srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(1 << 16), Met: oracle.NewMetrics()}
	srv.Publish(snap)
	handler := srv.Handler()
	k, n := uint64(snap.K()), uint64(snap.N())
	b.Run("client-off", func(b *testing.B) {
		x := uint64(777)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			target := fmt.Sprintf("/dist?src=%d&dst=%d", (x>>33)%k, x%n)
			req := httptest.NewRequest("GET", target, nil)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("dist status %d: %s", rec.Code, rec.Body.String())
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("client-on", func(b *testing.B) {
		ft := &httpfault.Transport{Inner: handlerTransport{handler}}
		c := client.New(client.Options{Transport: ft, BreakerTrip: -1})
		ctx := context.Background()
		x := uint64(777)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			target := fmt.Sprintf("http://bench/dist?src=%d&dst=%d", (x>>33)%k, x%n)
			resp, err := c.Do(ctx, http.MethodGet, target, "", nil)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Status != http.StatusOK {
				b.Fatalf("dist status %d: %s", resp.Status, resp.Body)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// benchShard computes a shard-shaped snapshot: k = n/3 source rows with
// hops and parents, as each of rebuild_sparse's three shards holds, at a
// quarter of its n so that the bench gate stays quick.
func benchShard(b *testing.B) (*graph.Graph, *oracle.Snapshot) {
	b.Helper()
	const n = 384
	g := graph.Random(n, 4*n, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 1, Directed: true})
	sources := make([]int, n/3)
	for i := range sources {
		sources[i] = i
	}
	in, err := oracle.Compute(context.Background(), g, oracle.ComputeSpec{Alg: "pipeline", Backend: "parallel", Sources: sources})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := oracle.Build(g, in, oracle.BuildOpts{Fingerprint: checkpoint.Fingerprint(g)})
	if err != nil {
		b.Fatal(err)
	}
	return g, snap
}

// BenchmarkOracleSnapshotSave measures one autosave of a shard: the
// header, the three columns written as they lie in memory, the checksum,
// fsync and rename. Its B/op is the header and the temp file's
// bookkeeping: it grows with the k source IDs in the meta, never with the
// k·n cells.
func BenchmarkOracleSnapshotSave(b *testing.B) {
	_, snap := benchShard(b)
	path := filepath.Join(b.TempDir(), "shard.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := oracle.SaveSnapshot(path, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleSnapshotLoad measures a boot-time load of the same shard.
// Its B/op is about one file-sized buffer (reported as B/file): the
// columns are adopted from the read buffer, not decoded into new ones.
func BenchmarkOracleSnapshotLoad(b *testing.B) {
	g, snap := benchShard(b)
	path := filepath.Join(b.TempDir(), "shard.snap")
	if err := oracle.SaveSnapshot(path, snap); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.LoadSnapshot(path, g, snap.Fingerprint()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(info.Size()), "B/file")
}

// --- Cluster router layer ---------------------------------------------

// hostTransport dispatches each request into the handler registered for
// its destination host — an in-process three-backend cluster. Like
// handlerTransport it keeps the router benchmarks socket-free and
// alloc-deterministic for cmd/benchgate.
type hostTransport struct{ handlers map[string]http.Handler }

func (t hostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("hostTransport: no backend for %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// benchRouterState is built once: three shard backends (n=256 split on
// the source dimension) behind a scatter-gather router, all in-process.
var benchRouterState struct {
	once sync.Once
	h    http.Handler
	n    int
}

func benchRouter(b *testing.B) (http.Handler, int) {
	b.Helper()
	benchRouterState.once.Do(func() {
		const n, nShards = 256, 3
		g := graph.Random(n, 4*n, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 2, Directed: true})
		fp := checkpoint.Fingerprint(g)
		handlers := make(map[string]http.Handler, nShards)
		replicaSets := make([][]string, nShards)
		for k := 0; k < nShards; k++ {
			lo, hi := cluster.Range(n, k, nShards)
			sources := make([]int, 0, hi-lo)
			dist := make([][]int64, 0, hi-lo)
			parent := make([][]int, 0, hi-lo)
			for s := lo; s < hi; s++ {
				d, p := graph.DijkstraTree(g, s)
				sources = append(sources, s)
				dist = append(dist, d)
				parent = append(parent, p)
			}
			snap, err := oracle.Build(g, oracle.BuildInput{Alg: "bench", Matrix: fam.FromRows(sources, g.N(), dist, nil, parent)},
				oracle.BuildOpts{Fingerprint: fp})
			if err != nil {
				panic(err)
			}
			srv := &oracle.Server{Store: &oracle.Store{}, Cache: oracle.NewPathCache(1 << 12),
				Met: oracle.NewMetrics(), ShardID: cluster.FormatShardID(k, nShards)}
			srv.Publish(snap)
			host := fmt.Sprintf("apsp-bench-%d:80", k)
			handlers[host] = srv.Handler()
			replicaSets[k] = []string{"http://" + host}
		}
		m, err := cluster.NewContiguous(n, fmt.Sprintf("%016x", fp), replicaSets)
		if err != nil {
			panic(err)
		}
		router, err := cluster.NewRouter(cluster.Options{Map: m, Inner: hostTransport{handlers}, Seed: 9})
		if err != nil {
			panic(err)
		}
		benchRouterState.h, benchRouterState.n = router.Handler(), n
	})
	return benchRouterState.h, benchRouterState.n
}

// BenchmarkRouterDist prices one routed point query: shard lookup +
// resilient-client forward (retry/breaker/hedge bookkeeping on the happy
// path) + header relay, over an in-process backend. The delta against
// BenchmarkOracleServeDist/client-on is the router's own overhead.
func BenchmarkRouterDist(b *testing.B) {
	handler, n := benchRouter(b)
	un := uint64(n)
	x := uint64(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		target := fmt.Sprintf("/dist?src=%d&dst=%d", (x>>33)%un, x%un)
		req := httptest.NewRequest("GET", target, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("dist status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkRouterBatchScatter prices the scatter-gather path: a 256-query
// batch spanning all three shards is split by shard, fanned out
// concurrently, generation-checked, and reassembled in order.
func BenchmarkRouterBatchScatter(b *testing.B) {
	handler, n := benchRouter(b)
	const batch = 256
	type item struct {
		Src int `json:"src"`
		Dst int `json:"dst"`
	}
	queries := make([]item, batch)
	x := uint64(17)
	for i := range queries {
		x = x*6364136223846793005 + 1442695040888963407
		queries[i] = item{Src: int((x >> 33) % uint64(n)), Dst: int(x % uint64(n))}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "queries/s")
}
