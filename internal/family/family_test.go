package family_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/bcast"
	"repro/internal/bellman"
	"repro/internal/blocker"
	"repro/internal/checkpoint"
	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cssp"
	"repro/internal/experiments"
	"repro/internal/family"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/inproc"
	"repro/internal/posweight"
	"repro/internal/scaling"
	"repro/internal/shortrange"
	"repro/internal/unweighted"
)

// probe is an instrumented engine environment. It counts the observer's
// RunStart and the network's Reset per engine run; its checkpoint policy
// snapshots round 1 of engine run stopAt and stops there, which only
// happens if the policy was handed to every run up to that one; and it
// cancels its context as engine run cancelAt starts, after which no round
// may complete. -1 disables either.
type probe struct {
	congest.NopObserver
	stopAt, cancelAt  int
	cancel            context.CancelFunc
	runStarts, resets int
	lateRounds        int // RoundDone events after the cancellation
	snap              *congest.Snapshot
}

func (p *probe) RunStart(int) {
	if p.runStarts == p.cancelAt {
		p.cancel()
	}
	p.runStarts++
}

func (p *probe) RoundDone(congest.RoundEvent) {
	if p.cancelAt >= 0 && p.runStarts > p.cancelAt {
		p.lateRounds++
	}
}

// countingNet is the reliability shim over a perfect wire, counting Reset.
type countingNet struct {
	*faults.Network
	p *probe
}

func (c countingNet) Reset(n int) { c.p.resets++; c.Network.Reset(n) }

func newProbe(stopAt, cancelAt int) (*probe, congest.Config) {
	p := &probe{stopAt: stopAt, cancelAt: cancelAt}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	return p, congest.Config{
		Observer: p,
		Network:  countingNet{faults.New(faults.Plan{}), p},
		Checkpoint: &congest.CheckpointPolicy{AtRound: 1, Run: stopAt, Stop: true, Sink: func(s *congest.Snapshot) error {
			p.snap = s
			return nil
		}},
		Ctx: ctx,
	}
}

// TestNoEntryDropsAnEngineHook is the guard for a bug class cssp once
// showed (it dropped a hook): every entry point that accepts an
// engine environment — the family table's rows and the building blocks
// that take a congest.Config — must hand all of it to every engine run it
// starts. A field deleted from any one Config ↔ Opts copy on the way
// (family → core / hssp / scaling / approx / shortrange / bellman, hssp →
// cssp → core / bellman, approx → unweighted / posweight, …) shows up
// here as a count that disagrees, a run that outlives its cancelled
// context or its round budget. Scheduler and Workers have no effect
// observable from outside the engine (results are bit-identical across
// both by contract), so TestProtocolsForwardConfigWhole (census_test.go)
// guards them statically: no protocol package builds a Config of its own.
func TestNoEntryDropsAnEngineHook(t *testing.T) {
	g := graph.Grid(3, 4, graph.GenOpts{MaxW: 6, ZeroFrac: 0.25, Seed: 5})
	sources := []int{0, 5, 11}
	coll, err := cssp.Build(g, sources, 2, 0, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := bcast.BuildTree(g, 0, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, g.N())
	items := make([][]bcast.Vec, g.N())
	for v := range vals {
		vals[v] = int64(v % 5)
		items[v] = []bcast.Vec{{int64(v)}}
	}

	type entry struct {
		name string
		// budget: the entry takes a congest.Config, so MaxRounds reaches
		// the engine too (family.Spec documents that its rows keep their
		// own bounds).
		budget bool
		run    func(cfg congest.Config) error
	}
	var entries []entry
	for _, alg := range family.Names(false) {
		entries = append(entries, entry{"family/" + alg, false, func(cfg congest.Config) error {
			_, err := family.Run(g, family.Spec{Alg: alg, Sources: sources, H: 3, Eps: 0.5, Engine: cfg})
			return err
		}})
	}
	entries = append(entries,
		entry{"cssp.Build", true, func(cfg congest.Config) error {
			_, err := cssp.Build(g, sources, 2, 0, cfg)
			return err
		}},
		entry{"cssp.BuildBellmanFord", true, func(cfg congest.Config) error {
			_, err := cssp.BuildBellmanFord(g, sources, 2, cfg)
			return err
		}},
		entry{"blocker.Compute", true, func(cfg congest.Config) error {
			_, err := blocker.Compute(g, coll, cfg)
			return err
		}},
		entry{"bellman.FullSSSP", true, func(cfg congest.Config) error {
			_, err := bellman.FullSSSP(g, 0, cfg)
			return err
		}},
		entry{"bellman.FullReverseSSSP", true, func(cfg congest.Config) error {
			_, err := bellman.FullReverseSSSP(g, 0, cfg)
			return err
		}},
		entry{"unweighted.KSource", true, func(cfg congest.Config) error {
			_, err := unweighted.KSource(g, sources, cfg)
			return err
		}},
		entry{"unweighted.ZeroReach", true, func(cfg congest.Config) error {
			_, _, err := unweighted.ZeroReach(g, sources, cfg)
			return err
		}},
		entry{"bcast.BuildTree", true, func(cfg congest.Config) error {
			_, _, err := bcast.BuildTree(g, 0, cfg)
			return err
		}},
		entry{"bcast.MaxArg", true, func(cfg congest.Config) error {
			_, _, _, err := bcast.MaxArg(g, tree, vals, cfg)
			return err
		}},
		entry{"bcast.Broadcast", true, func(cfg congest.Config) error {
			_, _, err := bcast.Broadcast(g, tree, []bcast.Vec{{1}, {2}, {3}}, make([][]int64, g.N()), func(int, []int64, bcast.Vec) {}, cfg)
			return err
		}},
		entry{"bcast.Gather", true, func(cfg congest.Config) error {
			_, _, err := bcast.Gather(g, tree, items, cfg)
			return err
		}},
	)

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			// Neither stop nor cancellation: the entry completes, and the
			// observer and the network must have seen the same runs.
			p, cfg := newProbe(-1, -1)
			if err := e.run(cfg); err != nil {
				t.Fatalf("instrumented run: %v", err)
			}
			runs := p.runStarts
			if runs == 0 || p.resets != runs {
				t.Fatalf("engine runs seen: observer %d, network %d — a hook was dropped on the way to some run", runs, p.resets)
			}
			for k := 0; k < runs; k++ {
				// The policy numbers the runs it is handed to, so stopping at
				// run k works for every k the observer counted only if no run
				// up to k missed the policy.
				p, cfg := newProbe(k, -1)
				err := e.run(cfg)
				if !errors.Is(err, congest.ErrCheckpointStop) || p.snap == nil || p.snap.RunIdx != k || p.runStarts != k+1 {
					t.Fatalf("stop at engine run %d of %d: err = %v after %d runs — Checkpoint was dropped on the way to some run", k, runs, err, p.runStarts)
				}
				// A context cancelled as run k starts (k = 0: before round 1
				// of the whole entry) lets no further round complete.
				p, cfg = newProbe(-1, k)
				if err := e.run(cfg); !errors.Is(err, context.Canceled) || p.lateRounds != 0 {
					t.Fatalf("Ctx cancelled at engine run %d of %d: err = %v after %d more rounds — Ctx was dropped on the way to some run", k, runs, err, p.lateRounds)
				}
			}
			if e.budget {
				// One round is never enough, and the very first run must say so.
				p, _ := newProbe(-1, -1)
				if err := e.run(congest.Config{MaxRounds: 1, Observer: p}); !errors.Is(err, congest.ErrMaxRounds) || p.runStarts != 1 {
					t.Fatalf("MaxRounds 1: err = %v in engine run %d, want ErrMaxRounds in the first", err, p.runStarts)
				}
			}
		})
	}
}

// TestEngineEnvironmentIsOneField keeps the seven family Opts collapsed:
// the engine environment is the one field Engine congest.Config, handed on
// whole, so no Opts may grow a field of an engine type (or one named like
// Config's two ints) beside it. The exception is Obs on core and hssp,
// the benchmark's field (benchmark/sim.go names it in keyed literals);
// both must still reach every engine run next to Engine.Observer.
func TestEngineEnvironmentIsOneField(t *testing.T) {
	engineType := map[reflect.Type]bool{
		reflect.TypeOf(congest.Config{}):                 true,
		reflect.TypeOf(congest.SchedulerDense):           true,
		reflect.TypeOf((*congest.Observer)(nil)).Elem():  true,
		reflect.TypeOf((*congest.Network)(nil)).Elem():   true,
		reflect.TypeOf((*congest.CheckpointPolicy)(nil)): true,
		reflect.TypeOf((*context.Context)(nil)).Elem():   true,
	}
	for _, c := range []struct {
		opts interface{}
		want []string
	}{
		{core.Opts{}, []string{"Engine", "Obs"}},
		{hssp.Opts{}, []string{"Engine", "Obs"}},
		{posweight.Opts{}, []string{"Engine"}},
		{shortrange.Opts{}, []string{"Engine"}},
		{bellman.Opts{}, []string{"Engine"}},
		{scaling.Opts{}, []string{"Engine"}},
		{approx.Opts{}, []string{"Engine"}},
	} {
		typ := reflect.TypeOf(c.opts)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); engineType[f.Type] || f.Name == "MaxRounds" || f.Name == "Workers" {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: engine-environment fields %v, want %v", typ, got, c.want)
		}
	}

	g := graph.Grid(3, 4, graph.GenOpts{MaxW: 6, ZeroFrac: 0.25, Seed: 5})
	for name, run := range map[string]func(engine, obs congest.Observer) error{
		"core": func(engine, obs congest.Observer) error {
			_, err := core.Run(g, core.Opts{Sources: []int{0, 5}, H: 3, Engine: congest.Config{Observer: engine}, Obs: obs})
			return err
		},
		"hssp": func(engine, obs congest.Observer) error {
			_, err := hssp.Run(g, hssp.Opts{Sources: []int{0, 5}, H: 2, Engine: congest.Config{Observer: engine}, Obs: obs})
			return err
		},
	} {
		engine, obs := &probe{cancelAt: -1}, &probe{cancelAt: -1}
		if err := run(engine, obs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if engine.runStarts == 0 || obs.runStarts != engine.runStarts {
			t.Errorf("%s: Engine.Observer saw %d engine runs, Obs %d", name, engine.runStarts, obs.runStarts)
		}
	}
}

// TestOptionCensus pins the complete field list of the engine
// environment, of the seven family Opts, of the experiment runner's
// Config and of the in-process serving tier's Backend, so an option can
// come back only through a visible edit of this table. That no option
// survives which only a test sets is TestSymbolCensus's rule; its
// censusAllow gives the reason for each field kept without a non-test
// setter.
func TestOptionCensus(t *testing.T) {
	for _, c := range []struct {
		opts interface{}
		want []string
	}{
		{congest.Config{}, []string{"MaxRounds", "Workers", "Scheduler", "Network", "Observer", "Checkpoint", "Ctx"}},
		{core.Opts{}, []string{"Sources", "H", "Delta", "Audit", "Prealloc", "Engine", "Trace", "Obs", "SnapshotRounds"}},
		{hssp.Opts{}, []string{"Sources", "H", "Delta", "Engine", "Obs"}},
		{posweight.Opts{}, []string{"Sources", "MaxDist", "Strict", "Engine"}},
		{shortrange.Opts{}, []string{"Sources", "H", "Delta", "Seed", "Delays", "Engine"}},
		{bellman.Opts{}, []string{"Sources", "H", "Engine"}},
		{scaling.Opts{}, []string{"Sources", "Engine"}},
		{approx.Opts{}, []string{"Sources", "Eps", "Engine"}},
		{experiments.Config{}, []string{"Small", "Seed"}},
		{inproc.Backend{}, []string{"Net", "Host", "Dir", "ShardID", "Log", "Build", "Next", "mu", "srv", "saved", "crash"}},
	} {
		typ := reflect.TypeOf(c.opts)
		got := make([]string, typ.NumField())
		for i := range got {
			got[i] = typ.Field(i).Name
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v: fields %v, want %v", typ, got, c.want)
		}
	}
}

// TestHopDefaults pins the table's hop rule per family: what H == 0
// resolves to, and which families an explicit H caps.
func TestHopDefaults(t *testing.T) {
	g := graph.Random(14, 40, graph.GenOpts{MaxW: 6, ZeroFrac: 0.2, Seed: 3, Directed: true})
	for _, alg := range family.Names(true) {
		res, err := family.Run(g, family.Spec{Alg: alg, Sources: []int{0, 4}, H: 2})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		capped := alg == "pipeline" || alg == "bellman"
		if (res.HopBound == 2) != capped || (!capped && res.HopBound != 0) {
			t.Errorf("%s with H=2: HopBound %d, capped family = %v", alg, res.HopBound, capped)
		}
		res, err = family.Run(g, family.Spec{Alg: alg, Sources: []int{0, 4}})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.HopBound != 0 || res.Alg != alg {
			t.Errorf("%s with H=0: HopBound %d alg %q, want unrestricted", alg, res.HopBound, res.Alg)
		}
		for i, s := range res.Sources {
			want := graph.Dijkstra(g, s)
			for v := range want {
				if res.Dist[i*res.N+v] != want[v] {
					t.Fatalf("%s default h: d(%d,%d) = %d, Dijkstra %d", alg, s, v, res.Dist[i*res.N+v], want[v])
				}
			}
		}
	}
}

// TestParallelRefusals: the parallel backend refuses, in one place, every
// spec feature only engine rounds can carry — and names the way out.
func TestParallelRefusals(t *testing.T) {
	g := graph.Random(12, 30, graph.GenOpts{MaxW: 5, Seed: 3, Directed: true})
	for name, sp := range map[string]family.Spec{
		"other family": {Alg: "blocker"},
		"hop cap":      {H: 3},
		"fault plan":   {Engine: congest.Config{Network: faults.New(faults.Plan{})}},
		"checkpoint":   {Engine: congest.Config{Checkpoint: &congest.CheckpointPolicy{}}},
		"list trace":   {ListTrace: func(string, ...interface{}) {}},
	} {
		sp.Backend = "parallel"
		if _, err := family.Run(g, sp); err == nil || !strings.Contains(err.Error(), "congest backend") {
			t.Errorf("%s: err = %v, want a refusal naming the congest backend", name, err)
		}
	}
	res, err := family.Run(g, family.Spec{Alg: "pipeline", Backend: "parallel", H: g.N() - 1})
	if err != nil || !strings.HasPrefix(res.Alg, "parallel/") || len(res.Sources) != g.N() {
		t.Fatalf("unrestricted parallel run: alg %q, %d sources, err %v", res.Alg, len(res.Sources), err)
	}
	if _, err := family.Run(g, family.Spec{Alg: "pipeline", Backend: "gpu"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := family.Run(g, family.Spec{Alg: "escher"}); err == nil || !strings.Contains(err.Error(), "pipeline | blocker") {
		t.Errorf("unknown algorithm: %v, want the family list", err)
	}
}

// TestRefusesOverflowingPathSums: AddEdge bounds one weight, not a sum, so
// on 0 →(2⁶⁰) 1 →(2⁶⁰) 2 every backend used to report d(0,2) = Inf —
// "unreachable" — without an error. Run refuses such a graph by name, once,
// before either backend sees it.
func TestRefusesOverflowingPathSums(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1, 1<<60)
	g.MustAddEdge(1, 2, 1<<60)
	for _, sp := range []family.Spec{
		{Alg: "pipeline"}, {Alg: "bellman"}, {Alg: "pipeline", Backend: "parallel"},
	} {
		if _, err := family.Run(g, sp); !errors.Is(err, graph.ErrPathOverflow) {
			t.Errorf("%s/%s: err = %v, want graph.ErrPathOverflow", sp.Alg, sp.Backend, err)
		}
	}
}

// TestRefusesDuplicateSources: the families index per-source state by
// source ID, so a source named twice shares one row between two; bellman,
// shortrange and scaling used to answer such a spec with wrong distances.
// Run refuses it by name, for every family and the parallel backend.
func TestRefusesDuplicateSources(t *testing.T) {
	g := graph.Random(12, 40, graph.GenOpts{MaxW: 6, Seed: 3, Directed: true})
	specs := []family.Spec{{Alg: "pipeline", Backend: "parallel"}}
	for _, alg := range family.Names(false) {
		specs = append(specs, family.Spec{Alg: alg})
	}
	for _, sp := range specs {
		sp.Sources, sp.Eps = []int{2, 2, 5}, 0.5
		if _, err := family.Run(g, sp); err == nil || !strings.Contains(err.Error(), "duplicate source 2") {
			t.Errorf("%s/%s: err = %v, want a refusal naming duplicate source 2", sp.Alg, sp.Backend, err)
		}
	}
}

// TestParallelRefusesUnpackableWeights: one arc of 2⁵⁸ leaves no room for a
// hop field beside the distance, so the parallel backend refuses the graph
// by name; the pipeline family keeps dist and hops apart and solves it.
func TestParallelRefusesUnpackableWeights(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1, 1<<58)
	g.MustAddEdge(1, 2, 5)
	g.MustAddEdge(0, 2, 6)
	if _, err := family.Run(g, family.Spec{Alg: "pipeline", Backend: "parallel"}); !errors.Is(err, compute.ErrKeyRange) {
		t.Errorf("parallel: err = %v, want compute.ErrKeyRange", err)
	}
	res, err := family.Run(g, family.Spec{Alg: "pipeline"})
	if err != nil {
		t.Fatalf("congest: %v", err)
	}
	if want := family.FromRows(res.Sources, g.N(), graph.APSP(g), nil, nil); !reflect.DeepEqual(res.Dist, want.Dist) {
		t.Errorf("congest: dist = %v, want %v", res.Dist, want.Dist)
	}
}

// TestLoadCheckpoint: the resume gate adopts the family from the file,
// hands back a snapshot the same description finishes bit-identically
// from under either scheduler, and refuses a description the checkpoint
// was not taken by.
func TestLoadCheckpoint(t *testing.T) {
	g := graph.Random(16, 48, graph.GenOpts{MaxW: 6, ZeroFrac: 0.2, Seed: 8, Directed: true})
	sp := family.Spec{Alg: "scaling", Sources: []int{0, 3}}
	want, err := family.Run(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	keeper := &checkpoint.Keeper{Path: path, Meta: &checkpoint.Meta{Alg: sp.Alg, N: g.N(), M: g.M(),
		Graph: checkpoint.Fingerprint(g), Sources: sp.Sources}}
	sp.Engine.Checkpoint = &congest.CheckpointPolicy{AtRound: 5, Stop: true, Sink: keeper.Sink}
	if _, err := family.Run(g, sp); !errors.Is(err, congest.ErrCheckpointStop) {
		t.Fatalf("checkpoint drill: %v", err)
	}

	for _, sched := range []congest.Scheduler{congest.SchedulerActive, congest.SchedulerDense} {
		resumed := family.Spec{Sources: sp.Sources, Engine: congest.Config{Scheduler: sched}}
		_, snap, err := family.LoadCheckpoint(path, g, &resumed)
		if err != nil || resumed.Alg != "scaling" {
			t.Fatalf("sched=%v: LoadCheckpoint: alg %q, %v", sched, resumed.Alg, err)
		}
		resumed.Engine.Checkpoint = &congest.CheckpointPolicy{Resume: snap}
		got, err := family.Run(g, resumed)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("sched=%v: resumed run diverges from the straight one (err %v)", sched, err)
		}
	}
	for name, bad := range map[string]family.Spec{
		"other family":  {Alg: "pipeline", Sources: sp.Sources},
		"other sources": {Sources: []int{0}},
		"other hop":     {Sources: sp.Sources, H: 4},
		"other plan":    {Sources: sp.Sources, Engine: congest.Config{Network: faults.New(faults.Plan{Drop: 0.1})}},
		"other backend": {Sources: sp.Sources, Backend: "parallel"},
	} {
		if _, _, err := family.LoadCheckpoint(path, g, &bad); err == nil {
			t.Errorf("%s: checkpoint accepted", name)
		}
	}
}
