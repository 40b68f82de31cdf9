package oracle

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/graph"
)

// testInput computes a pipeline result on a small random graph and wraps
// it as a BuildInput.
func testInput(t testing.TB, n, m int, seed int64, sources []int) (*graph.Graph, *core.Result, BuildInput) {
	t.Helper()
	g := graph.Random(n, m, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: seed, Directed: true})
	res, err := core.Run(g, core.Opts{Sources: sources, H: g.N() - 1})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return g, res, BuildInput{Alg: "pipeline", Stats: res.Stats,
		Matrix: family.FromRows(res.Sources, g.N(), res.Dist, res.Hops, res.Parent)}
}

func TestBuildRoundTrip(t *testing.T) {
	g, res, in := testInput(t, 24, 72, 3, []int{0, 3, 7, 11, 23})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if snap.K() != 5 || snap.N() != g.N() {
		t.Fatalf("snapshot shape k=%d n=%d", snap.K(), snap.N())
	}
	if !snap.HasPaths() || !snap.HasHops() {
		t.Fatal("pipeline snapshot should record paths and hops")
	}
	for i, s := range res.Sources {
		row, ok := snap.Row(s)
		if !ok || row != i {
			t.Fatalf("Row(%d) = %d,%v want %d", s, row, ok, i)
		}
		for v := 0; v < g.N(); v++ {
			if got := snap.DistAt(i, v); got != res.Dist[i][v] {
				t.Fatalf("DistAt(%d,%d) = %d, want %d", i, v, got, res.Dist[i][v])
			}
			if got := snap.hopAt(i, v); got != res.Hops[i][v] {
				t.Fatalf("hopAt(%d,%d) = %d, want %d", i, v, got, res.Hops[i][v])
			}
			if got := snap.parentAt(i, v); got != res.Parent[i][v] {
				t.Fatalf("parentAt(%d,%d) = %d, want %d", i, v, got, res.Parent[i][v])
			}
		}
	}
}

func TestBuildRejectsCorruptInput(t *testing.T) {
	g, _, _ := testInput(t, 12, 30, 5, []int{0, 4})
	cases := []struct {
		name   string
		mutate func(*BuildInput)
	}{
		{"no sources", func(in *BuildInput) { in.Sources = nil }},
		{"row count mismatch", func(in *BuildInput) { in.Dist = in.Dist[:in.N] }},
		{"row width mismatch", func(in *BuildInput) { in.N-- }},
		// A ragged row reaches Build as a column of the wrong length.
		{"short dist row", func(in *BuildInput) { in.Dist = in.Dist[:len(in.Dist)-3] }},
		{"short hop row", func(in *BuildInput) { in.Hops = in.Hops[:len(in.Hops)-3] }},
		{"short parent row", func(in *BuildInput) { in.Parent = in.Parent[:len(in.Parent)-3] }},
		{"source outside graph", func(in *BuildInput) { in.Sources[0] = 99 }},
		{"duplicate source", func(in *BuildInput) { in.Sources[1] = in.Sources[0] }},
		{"parent outside graph", func(in *BuildInput) { in.Parent[in.N+2] = int32(in.N) }},
		{"hop outside range", func(in *BuildInput) { in.Hops[in.N+2] = int32(in.N) + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, in := testInput(t, 12, 30, 5, []int{0, 4})
			tc.mutate(&in)
			if _, err := Build(g, in, BuildOpts{}); err == nil {
				t.Fatal("corrupt input accepted")
			}
		})
	}
}

func TestStorePublishGenerations(t *testing.T) {
	g, _, in := testInput(t, 12, 30, 7, []int{0, 1})
	var st Store
	if st.Current() != nil {
		t.Fatal("empty store should serve nil")
	}
	a, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if gen := st.Publish(a); gen != 1 || a.Gen() != 1 {
		t.Fatalf("first publish gen = %d/%d, want 1", gen, a.Gen())
	}
	if st.Current() != a {
		t.Fatal("store not serving first snapshot")
	}
	if gen := st.Publish(b); gen != 2 {
		t.Fatalf("second publish gen = %d, want 2", gen)
	}
	if st.Current() != b {
		t.Fatal("store not serving second snapshot")
	}
	// The displaced snapshot stays fully usable for in-flight readers.
	if a.DistAt(0, 3) != b.DistAt(0, 3) {
		t.Fatal("displaced snapshot corrupted by swap")
	}
}

func TestSnapshotPathMatchesReconstruct(t *testing.T) {
	g, res, in := testInput(t, 20, 60, 9, []int{0, 5, 13})
	snap, err := Build(g, in, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sources {
		for v := 0; v < g.N(); v++ {
			want, wantErr := core.ReconstructPath(g, res, i, v)
			got, gotErr := snap.Path(i, v)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("(%d,%d): oracle err %v, in-memory err %v", i, v, gotErr, wantErr)
			}
			if wantErr != nil {
				var wantPE, gotPE *core.PathError
				if !errors.As(wantErr, &wantPE) || !errors.As(gotErr, &gotPE) || !errors.Is(gotErr, wantPE.Kind) {
					t.Fatalf("(%d,%d): error kind diverged: oracle %v, in-memory %v", i, v, gotErr, wantErr)
				}
				continue
			}
			if len(want) != len(got) {
				t.Fatalf("(%d,%d): path %v vs %v", i, v, got, want)
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("(%d,%d): path %v vs %v", i, v, got, want)
				}
			}
		}
	}
}

func TestPathCacheLRU(t *testing.T) {
	c := NewPathCache(2)
	c.Put(1, 0, 1, []int{0, 1}, nil)
	c.Put(1, 0, 2, []int{0, 1, 2}, nil)
	if _, _, ok := c.Get(1, 0, 1); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(1, 0, 3, []int{0, 3}, nil) // evicts (1,0,2): (1,0,1) was touched
	if _, _, ok := c.Get(1, 0, 2); ok {
		t.Fatal("LRU evicted the wrong entry")
	}
	if _, _, ok := c.Get(1, 0, 1); !ok {
		t.Fatal("recently used entry evicted")
	}
	// Errors are cached values too.
	sentinel := errors.New("nope")
	c.Put(1, 0, 4, nil, sentinel)
	if _, err, ok := c.Get(1, 0, 4); !ok || !errors.Is(err, sentinel) {
		t.Fatalf("cached error lost: %v %v", err, ok)
	}
	// A new generation misses regardless of key overlap.
	if _, _, ok := c.Get(2, 0, 1); ok {
		t.Fatal("generation leaked across cache keys")
	}
	hits, misses, size := c.Stats()
	if hits == 0 || misses == 0 || size != 2 {
		t.Fatalf("stats hits=%d misses=%d size=%d", hits, misses, size)
	}
	// Capacity 0 disables caching entirely.
	z := NewPathCache(0)
	z.Put(1, 0, 0, []int{0}, nil)
	if _, _, ok := z.Get(1, 0, 0); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestComputeSpecDefaults(t *testing.T) {
	g := graph.Random(10, 30, graph.GenOpts{MaxW: 6, Seed: 2, Directed: true})
	sp := ComputeSpec{Alg: "pipeline"}
	in, err := Compute(context.Background(), g, sp)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if len(in.Sources) != g.N() {
		t.Fatalf("nil sources expanded to %d rows, want all %d", len(in.Sources), g.N())
	}
	if _, err := Compute(context.Background(), g, ComputeSpec{Alg: "frobnicate"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Compute(context.Background(), g, ComputeSpec{Alg: "approx"}); err == nil {
		t.Fatal("inexact family accepted by the exact-distance oracle")
	}
	if _, err := Compute(context.Background(), g, ComputeSpec{Alg: "pipeline", Sources: []int{99}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
