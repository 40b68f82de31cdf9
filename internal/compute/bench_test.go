package compute_test

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/graph"
)

// BenchmarkKernelLedgerShapes runs the kernel alone on the graphs of the
// ledger's two rebuild workloads (benchmark/rebuild.go), so a kernel
// change can be timed and profiled without booting a cluster:
//
//	go test -run '^$' -bench KernelLedgerShapes -cpu 1 -cpuprofile cpu.out ./internal/compute
//
// sparse is one of rebuild_sparse's three shards: n = 1536, m = 4n, the
// first 512 sources. dense is rebuild_dense's single shard: n = 768,
// m = n²/4, every source; at every seed tried (7, 11, 23, 31, 41, 53)
// its zero-weight arcs alone connect every pair, so each distance is 0
// and only hops differ. dense-nozero is that shape with no zero-weight
// arc, which times the kernel on real distances. complete is the near-complete instance DESIGN.md weighs against
// the deleted Floyd–Warshall: n = 768, m = n², every source. Workers
// follow GOMAXPROCS (-cpu). It is not in the Makefile's gated set: the
// gate reads allocations, and this is for time.
func BenchmarkKernelLedgerShapes(b *testing.B) {
	shapes := []struct {
		name    string
		n, m, k int
		gen     graph.GenOpts
	}{
		{"sparse", 1536, 4 * 1536, 512, graph.GenOpts{Seed: 7, MaxW: 8, ZeroFrac: 0.25, Directed: true}},
		{"dense", 768, 768 * 768 / 4, 768, graph.GenOpts{Seed: 7, MaxW: 64, ZeroFrac: 0.1, Directed: true}},
		{"dense-nozero", 768, 768 * 768 / 4, 768, graph.GenOpts{Seed: 7, MaxW: 64, Directed: true}},
		{"complete", 768, 768 * 768, 768, graph.GenOpts{Seed: 7, MaxW: 64, ZeroFrac: 0.1, Directed: true}},
	}
	for _, s := range shapes {
		g := graph.Random(s.n, s.m, s.gen)
		opts := compute.Opts{Sources: allSources(s.k)}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compute.APSP(g, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*s.k), "us/source")
		})
	}
}
