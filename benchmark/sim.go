package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hssp"
)

// blockerH fixes Algorithm 3's hop parameter. The automatic choice takes
// h=50 at n=128, which leaves the blocker set empty and skips the SSSP
// phase altogether; h=4 gives ~37 blockers and ~200 engine runs.
const blockerH = 4

// simState is what a simulation workload measures on: a random digraph and
// its reference distance matrix.
type simState struct {
	g   *graph.Graph
	ref [][]int64
}

func (simState) close() {}

// simOutcome is what one simulation returned, reduced to what the harness
// checks and reports.
type simOutcome struct {
	dist        [][]int64
	stats       congest.Stats
	phaseRounds map[string]int
	h, blockers int
}

// solve runs the workload's algorithm once through its public entry point:
// core.Run is what PipelinedAPSP calls, hssp.Run what BlockerAPSP calls.
func (st simState) solve(blocker bool, obs congest.Observer) (simOutcome, error) {
	n := st.g.N()
	if blocker {
		res, err := hssp.Run(st.g, hssp.Opts{H: blockerH, Obs: obs})
		if err != nil {
			return simOutcome{}, err
		}
		return simOutcome{dist: res.Dist, stats: res.Stats, phaseRounds: res.PhaseRounds, h: res.H, blockers: len(res.Q)}, nil
	}
	sources := make([]int, n)
	for v := range sources {
		sources[v] = v
	}
	res, err := core.Run(st.g, core.Opts{Sources: sources, H: n - 1, Obs: obs})
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{dist: res.Dist, stats: res.Stats}, nil
}

// verify checks all n² distances of one simulation against the reference.
func (st simState) verify(b *bench, out simOutcome) {
	b.attempted.Add(1)
	if len(out.dist) != len(st.ref) {
		b.wrongf("simulation returned %d rows, want %d", len(out.dist), len(st.ref))
		return
	}
	for s, row := range out.dist {
		for v, d := range row {
			if d != st.ref[s][v] {
				b.wrongf("d(%d,%d) = %d, reference says %d", s, v, d, st.ref[s][v])
				return
			}
		}
	}
}

func runSim(b *bench, blocker bool) error {
	n := 256
	if blocker {
		n = 128
	}
	var genS, refS float64
	st, err := setUp(b, func() (simState, error) {
		t0 := time.Now()
		g := graph.Random(n, 4*n, graph.GenOpts{Seed: b.seed, MaxW: 8, ZeroFrac: 0.25, Directed: true})
		t1 := time.Now()
		st := simState{g: g, ref: graph.APSP(g)}
		genS, refS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		// One discarded warm-up simulation: pools fill, the heap grows.
		out, err := st.solve(blocker, nil)
		if err != nil {
			return st, err
		}
		st.verify(b, out)
		return st, nil
	})
	if err != nil {
		return err
	}

	// The timed region is the Run call alone; verification is outside it.
	var first simOutcome
	timed := func(o *simObserver) (float64, error) {
		var obs congest.Observer
		if o != nil {
			obs = o
			o.begin()
		}
		t0 := time.Now()
		out, err := st.solve(blocker, obs)
		dt := time.Since(t0).Seconds()
		if o != nil {
			o.finish()
		}
		if err != nil {
			return 0, err
		}
		st.verify(b, out)
		if first.dist == nil {
			first = out
		} else if out.stats != first.stats {
			b.wrongf("simulation is not deterministic: stats %+v then %+v", first.stats, out.stats)
		}
		return dt, nil
	}

	if !b.traced() {
		var secs []float64
		for start := time.Now(); time.Since(start) < b.budget || len(secs) < 3; {
			dt, err := timed(nil)
			if err != nil {
				return err
			}
			secs = append(secs, dt)
		}
		reportOps(b, secs)
		return nil
	}

	// Traced run: every third simulation runs unobserved, as the base of
	// trace.overhead_pct; interleaved, so that drift hits both alike.
	b.rec.enable(true)
	var plain []float64
	var ops []*simObserver
	for start, i := time.Now(), 0; time.Since(start) < b.budget || len(plain) < 2; i++ {
		var o *simObserver
		if i%3 != 0 {
			o = &simObserver{rec: b.rec, n: n, op: int64(len(ops) + 1)}
		}
		dt, err := timed(o)
		if err != nil {
			return err
		}
		if o == nil {
			plain = append(plain, dt)
			continue
		}
		o.secs = dt
		ops = append(ops, o)
	}
	b.rec.enable(false)

	b.set("graph.gen_s", genS)
	b.set("graph.reference_s", refS)
	return reportSimLayers(b, blocker, first, plain, ops)
}

// reportOps sets the two end-to-end timing metrics from per-op seconds.
func reportOps(b *bench, secs []float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	b.setMedian("op_ms", ms)
	b.set("ops_per_s", float64(len(secs))/sum(secs))
}

// simObserver is the harness's congest.Observer and Phaser for one
// simulation: it counts what the engine reports and cuts spans at run and
// phase boundaries.
type simObserver struct {
	congest.NopObserver
	rec *recorder
	n   int
	op  int64

	root, phase, run openSpan

	secs        float64
	m0, m1      runtime.MemStats
	runs        int
	roundNs     []float64 // RoundEvent.Elapsed of every executed round
	activeShare float64   // sum over rounds of Active/n
	lastRunDone time.Time
}

func (o *simObserver) begin() {
	runtime.ReadMemStats(&o.m0)
	o.root = o.rec.start("sim.op", spanRef{Op: o.op})
}

// finish closes the last phase where the last engine run ended, so that
// the local combination after it is not counted as broadcast.
func (o *simObserver) finish() {
	o.phase.endAt(o.lastRunDone)
	o.root.end()
	runtime.ReadMemStats(&o.m1)
}

func (o *simObserver) parent() spanRef {
	if o.phase.rec != nil {
		return o.phase.ref()
	}
	return o.root.ref()
}

func (o *simObserver) Phase(name string) {
	o.phase.end()
	o.phase = o.rec.start("hssp."+name, o.root.ref())
}

func (o *simObserver) RunStart(int) {
	o.runs++
	o.run = o.rec.start("congest.run", o.parent())
}

func (o *simObserver) RoundDone(e congest.RoundEvent) {
	o.roundNs = append(o.roundNs, float64(e.Elapsed))
	o.activeShare += float64(e.Active) / float64(o.n)
}

func (o *simObserver) RunDone(s congest.Stats) {
	o.run.attr("rounds", float64(s.Rounds))
	o.run.attr("messages", float64(s.Messages))
	o.run.end()
	o.lastRunDone = time.Now()
}

func reportSimLayers(b *bench, blocker bool, first simOutcome, plain []float64, ops []*simObserver) error {
	b.set("congest.rounds", float64(first.stats.Rounds))
	b.set("congest.messages", float64(first.stats.Messages))
	b.set("congest.max_link_congestion", float64(first.stats.MaxLinkCongestion))

	var secs, runs, executed, share, nsPerMsg, outside, roundNs []float64
	var allocMB, allocs, gcs, pauseMs []float64
	for _, o := range ops {
		inRounds := sum(o.roundNs)
		secs = append(secs, o.secs)
		runs = append(runs, float64(o.runs))
		executed = append(executed, float64(len(o.roundNs)))
		share = append(share, ratio(o.activeShare, float64(len(o.roundNs))))
		nsPerMsg = append(nsPerMsg, ratio(inRounds, float64(first.stats.Messages)))
		outside = append(outside, o.secs-inRounds/1e9)
		roundNs = append(roundNs, o.roundNs...)
		allocMB = append(allocMB, float64(o.m1.TotalAlloc-o.m0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(o.m1.Mallocs-o.m0.Mallocs))
		gcs = append(gcs, float64(o.m1.NumGC-o.m0.NumGC))
		pauseMs = append(pauseMs, float64(o.m1.PauseTotalNs-o.m0.PauseTotalNs)/1e6)
	}
	b.setMedian("congest.runs", runs)
	b.setMedian("congest.rounds_executed", executed)
	b.setMedian("congest.active_share", share)
	b.setMedian("congest.ns_per_message", nsPerMsg)
	b.setMedian("congest.outside_rounds_s", outside)
	rs := sorted(roundNs)
	b.set("congest.round_p50_us", quantile(rs, 0.5)/1e3)
	b.set("congest.round_max_us", quantile(rs, 1)/1e3)
	b.set("trace.overhead_pct", 100*ratio(median(secs)-median(plain), median(plain)))

	if !blocker {
		b.setMedian("core.alloc_mb_per_op", allocMB)
		b.setMedian("core.allocs_per_op", allocs)
		b.setMedian("core.gc_cycles_per_op", gcs)
		b.setMedian("core.gc_pause_ms_per_op", pauseMs)
		return nil
	}
	b.setMedian("hssp.alloc_mb_per_op", allocMB)
	b.set("hssp.h", float64(first.h))
	b.set("hssp.blockers", float64(first.blockers))
	// Phase times come from the spans the observer cut at Phase calls; what
	// they leave of the operation is set-up before the first phase and the
	// local combination after the last engine run.
	phaseSecs := map[string][]float64{}
	local := map[int64]float64{}
	for _, s := range b.rec.all() {
		secs := float64(s.dur()) / 1e9
		if s.Name == "sim.op" {
			local[s.Op] += secs
		} else if phase, ok := strings.CutPrefix(s.Name, "hssp."); ok {
			phaseSecs[phase] = append(phaseSecs[phase], secs)
			local[s.Op] -= secs
		}
	}
	for _, name := range []string{"cssp", "blocker", "sssp", "broadcast"} {
		if len(phaseSecs[name]) != len(ops) {
			return fmt.Errorf("hssp.Run announced phase %q %d times in %d runs", name, len(phaseSecs[name]), len(ops))
		}
		b.setMedian("hssp."+name+"_s", phaseSecs[name])
		b.set("hssp."+name+"_rounds", float64(first.phaseRounds[name]))
	}
	var rest []float64
	for _, secs := range local {
		rest = append(rest, secs)
	}
	b.setMedian("hssp.local_s", rest)
	return nil
}
