// Package family is the one description of "run protocol family X on
// graph G under engine environment E": a Spec, one table with a row per
// family, and Run. cmd/apsprun, cmd/apspd and internal/oracle reach every
// family through it, so the hop-parameter defaults and the backend refusals
// exist once and the engine environment goes down as one value
// (Opts.Engine). Adding a family is: implement it, add one row.
package family

import (
	"fmt"
	"strings"

	"repro/internal/approx"
	"repro/internal/bellman"
	"repro/internal/checkpoint"
	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/hssp"
	"repro/internal/scaling"
	"repro/internal/shortrange"
)

// Spec describes one run.
type Spec struct {
	Alg string // the family (see Names)
	// Backend is "" or "congest" for the simulated engine, "parallel" for
	// the shared-memory kernel of internal/compute (see runParallel).
	Backend string
	Sources []int // nil = every node
	// H is the raw hop parameter, 0 = the family's default; checkpoint
	// metadata records this raw value.
	H   int
	Eps float64 // target stretch − 1 (approx only)
	// ListTrace, if set, receives a line per list event (pipeline only).
	ListTrace func(format string, args ...interface{})
	// Engine is the engine environment, handed to the family whole:
	// Workers, Scheduler, Observer, Network, Checkpoint and Ctx reach every
	// engine run it starts. MaxRounds is not taken from here — Run clears
	// it, so each family runs under its own proven bound.
	Engine congest.Config
}

// Result is what every family reports, its matrices in the store layout
// the oracle adopts. Hops and Parent are nil where the family records none
// (blocker, scaling).
type Result struct {
	Alg string // the family name, or "parallel/dijkstra"
	compute.Matrix
	Stats  congest.Stats
	Detail string // the family's own summary ("bound=… late=… maxList=…")
	// HopBound > 0 says Dist holds HopBound-hop distances (an explicit H
	// on a family where H is a hop bound): validate against the H-hop DP,
	// not Dijkstra.
	HopBound int
	Approx   *approx.Result // instead of Dist, for the one inexact family
}

// hopIsBound is the defaultH of families where H bounds the hops: 0 means
// n−1 (unrestricted) and an explicit H caps the result.
const hopIsBound = -1

// table is the family set. defaultH is what Spec.H == 0 resolves to:
// hopIsBound, 0 for a family with its own rule (blocker balances h itself;
// scaling and approx have none), else the value. exact families yield
// exact distances, which is what a distance oracle may serve. run hands
// sp.Engine to the family and maps its result into res; it sees H resolved
// and Sources explicit.
var table = []struct {
	name     string
	exact    bool
	defaultH int
	run      func(g *graph.Graph, sp Spec, res *Result) error
}{
	{"pipeline", true, hopIsBound, runPipeline},
	{"blocker", true, 0, runBlocker},
	{"scaling", true, 0, runScaling},
	{"approx", false, 0, runApprox},
	{"shortrange", true, 8, runShortrange},
	{"bellman", true, hopIsBound, runBellman},
}

func runPipeline(g *graph.Graph, sp Spec, res *Result) error {
	r, err := core.Run(g, core.Opts{Sources: sp.Sources, H: sp.H, Trace: sp.ListTrace, Engine: sp.Engine})
	if err == nil {
		res.Matrix, res.Stats = FromRows(sp.Sources, g.N(), r.Dist, r.Hops, r.Parent), r.Stats
		res.Detail = fmt.Sprintf("bound=%d late=%d maxList=%d", r.Bound, r.LateSends, r.MaxListLen)
	}
	return err
}

func runBlocker(g *graph.Graph, sp Spec, res *Result) error {
	r, err := hssp.Run(g, hssp.Opts{Sources: sp.Sources, H: sp.H, Engine: sp.Engine})
	if err == nil {
		res.Matrix, res.Stats = FromRows(sp.Sources, g.N(), r.Dist, nil, nil), r.Stats
		res.Detail = fmt.Sprintf("h=%d |Q|=%d phases=%v", r.H, len(r.Q), r.PhaseRounds)
	}
	return err
}

func runScaling(g *graph.Graph, sp Spec, res *Result) error {
	r, err := scaling.Run(g, scaling.Opts{Sources: sp.Sources, Engine: sp.Engine})
	if err == nil {
		res.Matrix, res.Stats = FromRows(sp.Sources, g.N(), r.Dist, nil, nil), r.Stats
		res.Detail = fmt.Sprintf("phases=%d", r.Bits+1)
	}
	return err
}

func runApprox(g *graph.Graph, sp Spec, res *Result) error {
	r, err := approx.Run(g, approx.Opts{Sources: sp.Sources, Eps: sp.Eps, Engine: sp.Engine})
	if err == nil {
		res.Approx, res.Stats = r, r.Stats
		res.Detail = fmt.Sprintf("scales=%d", r.Scales)
	}
	return err
}

func runShortrange(g *graph.Graph, sp Spec, res *Result) error {
	r, err := shortrange.Run(g, shortrange.Opts{Sources: sp.Sources, H: sp.H, Engine: sp.Engine})
	if err == nil {
		res.Matrix, res.Stats = FromRows(sp.Sources, g.N(), r.Dist, r.Hops, r.Parent), r.Stats
		res.Detail = fmt.Sprintf("snapRound=%d congestion=%d", r.SnapRound, r.Stats.MaxLinkCongestion)
	}
	return err
}

func runBellman(g *graph.Graph, sp Spec, res *Result) error {
	r, err := bellman.Run(g, bellman.Opts{Sources: sp.Sources, H: sp.H, Engine: sp.Engine})
	if err == nil {
		res.Matrix, res.Stats = FromRows(sp.Sources, g.N(), r.Dist, r.Hops, r.Parent), r.Stats
	}
	return err
}

// Names lists the families in table order; exactOnly keeps the exact ones.
func Names(exactOnly bool) []string {
	var names []string
	for _, f := range table {
		if f.exact || !exactOnly {
			names = append(names, f.name)
		}
	}
	return names
}

// Run executes the spec to completion on the backend it names.
func Run(g *graph.Graph, sp Spec) (Result, error) {
	var err error
	if sp.Sources, err = resolveSources(g, sp.Sources); err != nil {
		return Result{}, err
	}
	// Every family sums weights along paths into an int64 with graph.Inf as
	// "unreachable"; none may be handed a graph where a sum can get there.
	if _, err := g.MaxPathWeight(); err != nil {
		return Result{}, err
	}
	switch sp.Backend {
	case "", "congest":
	case "parallel":
		return runParallel(g, sp)
	default:
		return Result{}, fmt.Errorf("unknown backend %q (want congest | parallel)", sp.Backend)
	}
	for _, f := range table {
		if f.name != sp.Alg {
			continue
		}
		res := Result{Alg: f.name, Matrix: compute.Matrix{Sources: sp.Sources, N: g.N()}}
		switch {
		case sp.H != 0:
			if f.defaultH == hopIsBound {
				res.HopBound = sp.H
			}
		case f.defaultH == hopIsBound:
			sp.H = g.N() - 1
		default:
			sp.H = f.defaultH
		}
		sp.Engine.MaxRounds = 0
		if err := f.run(g, sp, &res); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("unknown algorithm %q (want %s)", sp.Alg, strings.Join(Names(false), " | "))
}

// runParallel is Backend "parallel": the same exact unrestricted matrices
// as the pipeline family, with no rounds — so a spec asking for anything
// only rounds carry is refused rather than silently losing it, and so is a
// graph whose path weights do not fit the kernel's packed key
// (compute.ErrKeyRange; the congest backend runs it). Engine.Observer sees
// no events, Engine.Ctx is checked once on entry (the kernel is not
// cancelable), and the result carries zero Stats.
func runParallel(g *graph.Graph, sp Spec) (Result, error) {
	const why = "the parallel backend computes unrestricted exact APSP with no simulated rounds"
	switch e := sp.Engine; {
	case sp.Alg != "" && sp.Alg != "pipeline":
		return Result{}, fmt.Errorf("-alg %s needs the congest backend (%s)", sp.Alg, why)
	case sp.H != 0 && sp.H < g.N()-1:
		return Result{}, fmt.Errorf("hop bound %d needs the congest backend (%s)", sp.H, why)
	case e.Network != nil:
		return Result{}, fmt.Errorf("a fault plan needs the congest backend (%s)", why)
	case e.Checkpoint != nil:
		return Result{}, fmt.Errorf("checkpoints are engine snapshots and need the congest backend (%s)", why)
	case sp.ListTrace != nil:
		return Result{}, fmt.Errorf("a list trace needs the congest backend (%s)", why)
	case e.Ctx != nil && e.Ctx.Err() != nil:
		return Result{}, e.Ctx.Err()
	}
	r, err := compute.APSP(g, compute.Opts{Sources: sp.Sources, Workers: sp.Engine.Workers})
	if err != nil {
		return Result{}, err
	}
	return Result{Alg: "parallel/dijkstra", Matrix: r.Matrix,
		Detail: fmt.Sprintf("kernel=dijkstra workers=%d", r.Workers)}, nil
}

// FromRows converts a CONGEST family's per-source rows into the store
// layout — the one copy a row-shaped result makes on its way to the oracle
// (the parallel backend's kernel writes the layout directly and makes none).
// A nil row set gives a nil column; a row of the wrong length gives a column
// of the wrong length, which oracle.Build refuses.
func FromRows(sources []int, n int, dist, hops [][]int64, parent [][]int) compute.Matrix {
	return compute.Matrix{Sources: sources, N: n, Dist: flatten[int64](dist, n),
		Hops: flatten[int32](hops, n), Parent: flatten[int32](parent, n)}
}

func flatten[D int64 | int32, S int64 | int](rows [][]S, n int) []D {
	if rows == nil {
		return nil
	}
	col := make([]D, 0, len(rows)*n)
	for _, row := range rows {
		for _, x := range row {
			col = append(col, D(x))
		}
	}
	return col
}

// LoadCheckpoint reads a checkpoint file and checks that it was taken by
// this run description: same family (adopted from the file when sp.Alg is
// empty), graph, sources, raw hop parameter and fault plan; the scheduler
// may differ. The caller arms its checkpoint policy with the returned
// snapshot.
func LoadCheckpoint(path string, g *graph.Graph, sp *Spec) (*checkpoint.Meta, *congest.Snapshot, error) {
	if sp.Backend == "parallel" {
		return nil, nil, fmt.Errorf("checkpoints are engine snapshots; resuming %s needs the congest backend", path)
	}
	meta, snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, nil, err
	}
	if sp.Alg == "" {
		sp.Alg = meta.Alg
	}
	if meta.Alg != "" && meta.Alg != sp.Alg {
		return nil, nil, fmt.Errorf("checkpoint %s was taken by -alg %s, not %s", path, meta.Alg, sp.Alg)
	}
	if sp.Sources, err = resolveSources(g, sp.Sources); err != nil {
		return nil, nil, err
	}
	fnet, _ := sp.Engine.Network.(*faults.Network)
	if err := meta.ValidateAgainst(g, sp.Sources, sp.H, fnet.PlanString()); err != nil {
		return nil, nil, err
	}
	return meta, snap, nil
}

// resolveSources expands nil to every node and range-checks the rest. It
// refuses a repeated source: families index per-source state by source ID.
func resolveSources(g *graph.Graph, sources []int) ([]int, error) {
	if sources == nil {
		for v := 0; v < g.N(); v++ {
			sources = append(sources, v)
		}
	}
	seen := make([]bool, g.N())
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("source %d outside graph (n=%d)", s, g.N())
		}
		if seen[s] {
			return nil, fmt.Errorf("duplicate source %d", s)
		}
		seen[s] = true
	}
	return sources, nil
}
