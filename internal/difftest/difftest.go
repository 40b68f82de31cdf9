// Package difftest is the differential-testing harness that found the
// repository's counterexamples to the paper's literal pseudocode: it sweeps
// small random instances, compares an algorithm under test against a
// sequential oracle, and reports the first (hence smallest-n) failing
// instance together with a reproducible dump.
//
// Use it in tests:
//
//	difftest.Search(t, difftest.Space{MaxN: 10}, func(in difftest.Instance) error {
//	    ... run algorithm, return non-nil on mismatch ...
//	})
package difftest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compute"
	"repro/internal/graph"
)

// Instance is one generated test case.
type Instance struct {
	G       *graph.Graph
	Sources []int
	H       int
	Seed    int64
}

// Dump renders the instance as a reproducible fixture.
func (in Instance) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d n=%d sources=%v h=%d\n", in.Seed, in.G.N(), in.Sources, in.H)
	for _, e := range in.G.Edges() {
		fmt.Fprintf(&sb, "  e %d %d %d\n", e.From, e.To, e.W)
	}
	return sb.String()
}

// Space bounds the search.
type Space struct {
	// MinN and MaxN bound the node counts swept (defaults 4 and 10).
	MinN, MaxN int
	// SeedsPerSize is the number of random seeds per node count
	// (default 40).
	SeedsPerSize int64
	// MaxK bounds the source counts swept (default 3).
	MaxK int
	// H is the hop budget (default 4).
	H int
	// MaxW and ZeroFrac shape the weights (defaults 5 and 0.2).
	MaxW     int64
	ZeroFrac float64
	// Directed graphs (default true).
	Undirected bool
}

func (s Space) withDefaults() Space {
	if s.MinN == 0 {
		s.MinN = 4
	}
	if s.MaxN == 0 {
		s.MaxN = 10
	}
	if s.SeedsPerSize == 0 {
		s.SeedsPerSize = 40
	}
	if s.MaxK == 0 {
		s.MaxK = 3
	}
	if s.H == 0 {
		s.H = 4
	}
	if s.MaxW == 0 {
		s.MaxW = 5
	}
	if s.ZeroFrac == 0 {
		s.ZeroFrac = 0.2
	}
	return s
}

// Check runs the algorithm-under-test on one instance; return a non-nil
// error describing the first mismatch.
type Check func(Instance) error

// Search sweeps the space smallest-first and fails the test at the first
// mismatching instance, printing its dump. It returns the number of
// instances checked.
func Search(t *testing.T, space Space, check Check) int {
	t.Helper()
	space = space.withDefaults()
	count := 0
	for n := space.MinN; n <= space.MaxN; n++ {
		for seed := int64(0); seed < space.SeedsPerSize; seed++ {
			for k := 1; k <= space.MaxK && k <= n; k++ {
				g := graph.Random(n, 2*n, graph.GenOpts{
					Seed: seed, MaxW: space.MaxW, ZeroFrac: space.ZeroFrac,
					Directed: !space.Undirected,
				})
				sources := make([]int, 0, k)
				for i := 0; i < k; i++ {
					sources = append(sources, (i*n)/k)
				}
				in := Instance{G: g, Sources: sources, H: space.H, Seed: seed}
				count++
				if err := check(in); err != nil {
					t.Fatalf("difftest: first failing instance (after %d checks): %v\n%s", count, err, in.Dump())
				}
			}
		}
	}
	return count
}

// HHopOracle compares a distance matrix against the sequential h-hop DP
// for the instance; a convenience Check body.
func HHopOracle(in Instance, dist [][]int64) error {
	for i, s := range in.Sources {
		want := graph.HHopDistances(in.G, s, in.H)
		for v := 0; v < in.G.N(); v++ {
			if dist[i][v] != want[v] {
				return fmt.Errorf("dist[src %d][%d] = %d, want %d", s, v, dist[i][v], want[v])
			}
		}
	}
	return nil
}

// SSSPOracle compares a distance matrix against the shared-memory
// compute backend: one parallel reference matrix for the whole instance
// instead of a sequential Dijkstra per source, which is what keeps the
// differential sweeps affordable as instance sizes grow. (internal/compute
// is itself differentially validated against sequential Dijkstra and the
// CONGEST pipeline in its own suite, so this is an independent oracle for
// every engine family.)
func SSSPOracle(in Instance, dist [][]int64) error {
	ref, err := compute.APSP(in.G, compute.Opts{Sources: in.Sources})
	if err != nil {
		return fmt.Errorf("reference backend: %v", err)
	}
	n := in.G.N()
	for i, s := range in.Sources {
		for v := 0; v < n; v++ {
			if dist[i][v] != ref.Dist[i*n+v] {
				return fmt.Errorf("dist[src %d][%d] = %d, want %d", s, v, dist[i][v], ref.Dist[i*n+v])
			}
		}
	}
	return nil
}
