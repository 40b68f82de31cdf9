package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/congest"
	"repro/internal/graph"
)

// ChromePath derives the Chrome trace filename from the JSONL trace path:
// trace.jsonl → trace.chrome.json.
func ChromePath(trace string) string {
	base := strings.TrimSuffix(trace, filepath.Ext(trace))
	return base + ".chrome.json"
}

// ParseScheduler decodes a -sched flag value.
func ParseScheduler(arg string) (congest.Scheduler, error) {
	switch arg {
	case "active":
		return congest.SchedulerActive, nil
	case "dense":
		return congest.SchedulerDense, nil
	}
	return 0, fmt.Errorf("bad -sched %q (want active | dense)", arg)
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
