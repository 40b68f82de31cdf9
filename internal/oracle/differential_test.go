package oracle

import (
	"context"
	"errors"
	"testing"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestDifferentialAllFamilies is the oracle's conformance gate: for every
// protocol family, every answer the snapshot serves must be byte-equal to
// the in-memory result it was built from — distances against the Dist
// matrix, paths (where the family records parents) against the shared
// walker run directly over the matrices, error kinds included. Families
// without parent records must refuse path queries with a typed error, not
// improvise.
func TestDifferentialAllFamilies(t *testing.T) {
	g := graph.Random(20, 64, graph.GenOpts{MaxW: 8, ZeroFrac: 0.25, Seed: 11, Directed: true})
	sources := []int{0, 3, 9, 17}

	families := []struct {
		alg      string
		h        int
		wantPath bool
		wantHops bool
	}{
		{"pipeline", 0, true, true},
		{"blocker", 0, false, false},
		{"scaling", 0, false, false},
		{"shortrange", 0, true, true}, // h=0 → default 8: hop-limited but self-consistent
		{"bellman", 0, true, true},
	}
	for _, fam := range families {
		t.Run(fam.alg, func(t *testing.T) {
			in, err := Compute(context.Background(), g, ComputeSpec{Alg: fam.alg, Sources: sources, H: fam.h})
			if err != nil {
				t.Fatalf("Compute(%s): %v", fam.alg, err)
			}
			snap, err := Build(g, in, BuildOpts{})
			if err != nil {
				t.Fatalf("Build(%s): %v", fam.alg, err)
			}
			if snap.HasPaths() != fam.wantPath || snap.HasHops() != fam.wantHops {
				t.Fatalf("%s capabilities paths=%v hops=%v, want %v/%v",
					fam.alg, snap.HasPaths(), snap.HasHops(), fam.wantPath, fam.wantHops)
			}

			// Distances: byte-equal to the in-memory matrix, every pair.
			for i := range in.Sources {
				for v := 0; v < g.N(); v++ {
					if got := snap.DistAt(i, v); got != in.Dist[i*in.N+v] {
						t.Fatalf("%s DistAt(%d,%d) = %d, in-memory %d", fam.alg, i, v, got, in.Dist[i*in.N+v])
					}
				}
			}

			if !fam.wantPath {
				if _, err := snap.Path(0, 1); !errors.Is(err, core.ErrPathMalformed) {
					t.Fatalf("%s path query returned %v, want ErrPathMalformed", fam.alg, err)
				}
				return
			}

			// Paths: the snapshot walk must agree with the walker applied to
			// the in-memory matrices — same nodes or same typed error kind.
			pv := core.PathView{
				Sources: in.Sources,
				Dist:    func(i, v int) int64 { return in.Dist[i*in.N+v] },
				Parent:  func(i, v int) int { return int(in.Parent[i*in.N+v]) },
			}
			if in.Hops != nil {
				pv.Hops = func(i, v int) int64 { return int64(in.Hops[i*in.N+v]) }
			}
			for i := range in.Sources {
				for v := 0; v < g.N(); v++ {
					want, wantErr := core.WalkParents(g, pv, i, v)
					got, gotErr := snap.Path(i, v)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s (%d,%d): oracle err %v, in-memory err %v", fam.alg, i, v, gotErr, wantErr)
					}
					if wantErr != nil {
						var pe *core.PathError
						if !errors.As(wantErr, &pe) || !errors.Is(gotErr, pe.Kind) {
							t.Fatalf("%s (%d,%d): error kind diverged: oracle %v, in-memory %v", fam.alg, i, v, gotErr, wantErr)
						}
						continue
					}
					if len(want) != len(got) {
						t.Fatalf("%s (%d,%d): path %v vs %v", fam.alg, i, v, got, want)
					}
					for j := range want {
						if want[j] != got[j] {
							t.Fatalf("%s (%d,%d): path %v vs %v", fam.alg, i, v, got, want)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialExactFamiliesVsReference pins the exact (unrestricted)
// families to one parallel-backend reference matrix (itself validated
// against sequential Dijkstra in internal/compute), so the serving
// layer's provenance chain reaches ground truth without a per-query
// Dijkstra per family.
func TestDifferentialExactFamiliesVsReference(t *testing.T) {
	g := graph.Random(18, 54, graph.GenOpts{MaxW: 7, ZeroFrac: 0.2, Seed: 4, Directed: true})
	sources := []int{1, 6, 12}
	ref, err := compute.APSP(g, compute.Opts{Sources: sources})
	if err != nil {
		t.Fatalf("reference backend: %v", err)
	}
	for _, alg := range []string{"pipeline", "blocker", "scaling", "bellman"} {
		in, err := Compute(context.Background(), g, ComputeSpec{Alg: alg, Sources: sources})
		if err != nil {
			t.Fatalf("Compute(%s): %v", alg, err)
		}
		snap, err := Build(g, in, BuildOpts{})
		if err != nil {
			t.Fatalf("Build(%s): %v", alg, err)
		}
		for i, s := range sources {
			for v := 0; v < g.N(); v++ {
				if got := snap.DistAt(i, v); got != ref.Dist[i*ref.N+v] {
					t.Fatalf("%s dist(%d,%d) = %d, reference %d", alg, s, v, got, ref.Dist[i*ref.N+v])
				}
			}
		}
	}
}
