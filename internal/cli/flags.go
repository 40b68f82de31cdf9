package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/congest"
	"repro/internal/family"
	"repro/internal/graph"
)

// RunFlags are the flags apsprun and apspd share: which graph, which
// protocol family on which backend, under which engine settings. Set N
// and M to the binary's defaults before Register.
type RunFlags struct {
	Graph, Grid string
	N, M        int
	MaxW        int64
	Zero        float64
	Seed        int64

	Alg, Backend, Sources string
	H, Workers            int
	Faults                string
	FaultSeed             int64
}

// Register declares the flags on fs. exactOnly restricts the -alg list to
// the families a distance oracle can serve.
func (f *RunFlags) Register(fs *flag.FlagSet, exactOnly bool) {
	fs.StringVar(&f.Graph, "graph", "", "graph file (empty = generate)")
	fs.StringVar(&f.Grid, "grid", "", "ROWSxCOLS: generate a grid graph instead of a random one")
	fs.IntVar(&f.N, "n", f.N, "nodes (generated graphs)")
	fs.IntVar(&f.M, "m", f.M, "edges (generated graphs)")
	fs.Int64Var(&f.MaxW, "maxw", 8, "max weight (generated graphs)")
	fs.Float64Var(&f.Zero, "zero", 0.25, "zero-weight fraction (generated graphs)")
	fs.Int64Var(&f.Seed, "seed", 1, "seed (generated graphs)")

	fs.StringVar(&f.Alg, "alg", "pipeline", strings.Join(family.Names(exactOnly), " | "))
	fs.StringVar(&f.Backend, "backend", "congest", "compute substrate: congest (simulated engine) | parallel (shared-memory internal/compute; production sizes)")
	fs.StringVar(&f.Sources, "sources", "", "comma-separated sources (empty = all)")
	fs.IntVar(&f.H, "h", 0, "hop parameter (0 = per-algorithm default)")
	fs.IntVar(&f.Workers, "workers", 0, "engine worker goroutines per round (0 = automatic)")
	fs.StringVar(&f.Faults, "faults", "", `adversarial network plan: "all", or terms like "delay=4,drop=0.2,dup=0.1,seed=7" (empty = perfect delivery)`)
	fs.Int64Var(&f.FaultSeed, "fault-seed", 0, "fault PRF seed (used when the -faults plan has no seed term)")
}

// Resolve loads the graph and turns the rest into a run description. The
// fault plan stays text (Faults, FaultSeed): each binary opens its own
// network with faults.Open, once per computation.
func (f *RunFlags) Resolve() (*graph.Graph, family.Spec, error) {
	g, err := LoadGraph(f.Graph, f.Grid, f.N, f.M, f.MaxW, f.Zero, f.Seed)
	if err != nil {
		return nil, family.Spec{}, err
	}
	sources, err := ParseSources(f.Sources, g.N())
	if err != nil {
		return nil, family.Spec{}, err
	}
	return g, family.Spec{Alg: f.Alg, Backend: f.Backend, Sources: sources, H: f.H,
		Engine: congest.Config{Workers: f.Workers}}, nil
}

// ChromePath derives the Chrome trace filename from the JSONL trace path:
// trace.jsonl → trace.chrome.json.
func ChromePath(trace string) string {
	base := strings.TrimSuffix(trace, filepath.Ext(trace))
	return base + ".chrome.json"
}

// ParseSources decodes a -sources flag value: comma-separated node IDs,
// empty meaning all n nodes.
func ParseSources(arg string, n int) ([]int, error) {
	if arg == "" {
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		return all, nil
	}
	parts := strings.Split(arg, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad source %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// LoadGraph resolves the graph flags: a -grid ROWSxCOLS spec wins, then a
// -graph file, else a directed random graph from the generator flags.
func LoadGraph(file, grid string, n, m int, maxW int64, zero float64, seed int64) (*graph.Graph, error) {
	if grid != "" {
		rows, cols, ok := strings.Cut(grid, "x")
		r, err1 := strconv.Atoi(rows)
		c, err2 := strconv.Atoi(cols)
		if !ok || err1 != nil || err2 != nil || r < 1 || c < 1 {
			return nil, fmt.Errorf("bad -grid %q (want ROWSxCOLS)", grid)
		}
		return graph.Grid(r, c, graph.GenOpts{MaxW: maxW, ZeroFrac: zero, Seed: seed}), nil
	}
	if file == "" {
		return graph.Random(n, m, graph.GenOpts{MaxW: maxW, ZeroFrac: zero, Seed: seed, Directed: true}), nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Decode(f)
}
