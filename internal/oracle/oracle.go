// Package oracle is the distance-oracle serving layer over precomputed
// APSP results: the second half of the paper's bargain. Agarwal &
// Ramachandran frame weighted APSP as oracle precomputation — pay
// Õ(n^{5/4}) CONGEST rounds once, then answer any (s,v) distance or path
// query from the stored distance and parent matrices — and this package
// serves those answers over HTTP at memory speed.
//
// The stored form is an immutable column store, compute.Matrix: three flat
// row-major columns over the k source rows — distances (int64), hop counts
// and parent pointers (int32) — indexed row·n+v. It is the layout the
// parallel backend's kernel writes and the snapshot file holds, so Build
// validates and adopts a computed matrix rather than copying it, and a
// saved snapshot's columns load back as the file's own bytes. A Snapshot
// is never mutated after Build; the serving Store swaps whole snapshots
// through one atomic pointer, so queries take no lock, see exactly one
// generation end-to-end, and a background recompute can publish a
// replacement with zero failed or mixed-generation queries (the hot-swap
// gate in swap_test.go holds the receipt).
//
// Path queries lazily materialize the recorded path by the hardened
// core.WalkParents walker (shared error taxonomy with ReconstructPath),
// behind a small LRU keyed by (generation, row, target).
package oracle

import (
	"fmt"
	"sync/atomic"

	"repro/internal/compute"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

// BuildInput is a computed result: the store-layout Matrix every family
// reports (family.Result carries the same one) plus where it came from.
// Hops and Parent are optional (nil Parent disables path serving; Hops
// additionally gate hop validation).
type BuildInput struct {
	// Alg names the protocol family that produced the matrices.
	Alg string
	compute.Matrix
	// Stats is the CONGEST cost paid to compute the matrices.
	Stats congest.Stats
	// Phys is the delivery shim's physical cost when the computation ran
	// under a fault plan (nil = perfect delivery).
	Phys *faults.PhysStats
}

// Snapshot is one immutable, queryable generation of the oracle.
type Snapshot struct {
	gen    uint64 // assigned by Store.Publish; 0 until published
	alg    string
	m      compute.Matrix // adopted from BuildInput, never written
	srcRow map[int]int
	g      *graph.Graph
	stats  congest.Stats
	phys   *faults.PhysStats
	fp     uint64 // graph fingerprint (checkpoint.Fingerprint)
}

// BuildOpts tunes snapshot construction.
type BuildOpts struct {
	// Fingerprint pins the graph identity (informative; /healthz reports it).
	Fingerprint uint64
}

// Build adopts a computed Matrix as the column store: the snapshot serves
// in's slices themselves, so the caller must not write to them afterwards.
// The input is validated like untrusted data — snapshots are also built
// from files — so a wrong shape, a duplicate or out-of-range source and an
// out-of-range hop count or parent are errors, not panics.
func Build(g *graph.Graph, in BuildInput, opts BuildOpts) (*Snapshot, error) {
	n, k := g.N(), len(in.Sources)
	if k == 0 {
		return nil, fmt.Errorf("oracle: no sources")
	}
	if in.N != n {
		return nil, fmt.Errorf("oracle: matrix rows of %d cells, graph has n=%d", in.N, n)
	}
	if len(in.Dist) != k*n {
		return nil, fmt.Errorf("oracle: distance column has %d cells, want %d sources × %d", len(in.Dist), k, n)
	}
	if in.Hops != nil && len(in.Hops) != k*n {
		return nil, fmt.Errorf("oracle: hop column has %d cells, want %d sources × %d", len(in.Hops), k, n)
	}
	if in.Parent != nil && len(in.Parent) != k*n {
		return nil, fmt.Errorf("oracle: parent column has %d cells, want %d sources × %d", len(in.Parent), k, n)
	}
	srcRow := make(map[int]int, k)
	for i, s := range in.Sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("oracle: source node %d outside graph (n=%d)", s, n)
		}
		if prev, dup := srcRow[s]; dup {
			return nil, fmt.Errorf("oracle: source %d appears at rows %d and %d", s, prev, i)
		}
		srcRow[s] = i
	}
	for c, h := range in.Hops {
		if h < -1 || int(h) > n {
			return nil, fmt.Errorf("oracle: hop count %d at (%d,%d) out of range", h, c/n, c%n)
		}
	}
	for c, p := range in.Parent {
		if p < -1 || int(p) >= n {
			return nil, fmt.Errorf("oracle: parent %d at (%d,%d) outside graph", p, c/n, c%n)
		}
	}
	return &Snapshot{alg: in.Alg, m: in.Matrix, srcRow: srcRow, g: g,
		stats: in.Stats, phys: in.Phys, fp: opts.Fingerprint}, nil
}

// Gen is the generation assigned at publish time (0 = unpublished).
func (s *Snapshot) Gen() uint64 { return s.gen }

// Alg names the protocol family that produced the snapshot.
func (s *Snapshot) Alg() string { return s.alg }

// N is the number of nodes; K the number of source rows.
func (s *Snapshot) N() int { return s.m.N }

// K is the number of source rows.
func (s *Snapshot) K() int { return len(s.m.Sources) }

// Sources returns the source node per row (callers must not mutate).
func (s *Snapshot) Sources() []int { return s.m.Sources }

// Stats is the CONGEST cost paid to compute the snapshot.
func (s *Snapshot) Stats() congest.Stats { return s.stats }

// Phys is the delivery shim's physical cost for the computation (nil when
// it ran over perfect delivery).
func (s *Snapshot) Phys() *faults.PhysStats { return s.phys }

// Fingerprint is the graph fingerprint the snapshot was built against.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// Graph returns the graph the snapshot answers for.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Row maps a source node ID to its row index.
func (s *Snapshot) Row(src int) (int, bool) {
	i, ok := s.srcRow[src]
	return i, ok
}

// DistAt returns the stored distance for (row, v). The hot path of the
// whole subsystem: one multiply-add and one load.
func (s *Snapshot) DistAt(row, v int) int64 { return s.m.Dist[row*s.m.N+v] }

// HasPaths reports whether parent pointers were recorded.
func (s *Snapshot) HasPaths() bool { return s.m.Parent != nil }

// HasHops reports whether hop counts were recorded.
func (s *Snapshot) HasHops() bool { return s.m.Hops != nil }

// hopAt / parentAt read the int32 columns (only called when recorded).
func (s *Snapshot) hopAt(row, v int) int64 { return int64(s.m.Hops[row*s.m.N+v]) }

func (s *Snapshot) parentAt(row, v int) int { return int(s.m.Parent[row*s.m.N+v]) }

// Path materializes the recorded path from row's source to v through the
// hardened shared walker: identical path and error semantics to
// core.ReconstructPath on the original result (the differential gate in
// differential_test.go holds the receipt). All failures are typed
// *core.PathError values.
func (s *Snapshot) Path(row, v int) ([]int, error) {
	if !s.HasPaths() {
		return nil, &core.PathError{Kind: core.ErrPathMalformed, Source: row, Node: v,
			Detail: fmt.Sprintf("%s snapshot records no parent pointers", s.alg)}
	}
	pv := core.PathView{
		Sources: s.m.Sources,
		Dist:    s.DistAt,
		Parent:  s.parentAt,
	}
	if s.HasHops() {
		pv.Hops = s.hopAt
	}
	return core.WalkParents(s.g, pv, row, v)
}

// Store is the atomic snapshot holder: readers Load the current pointer
// once per request and never block; Publish assigns the next generation
// and swaps the pointer. RWMutex-free by construction.
type Store struct {
	cur atomic.Pointer[Snapshot]
	gen atomic.Uint64
}

// Current returns the serving snapshot (nil before the first Publish).
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Publish assigns s the next generation and makes it the serving
// snapshot. Returns the generation. The previous snapshot stays valid for
// requests that already loaded it — that is the zero-failed-queries swap.
func (st *Store) Publish(s *Snapshot) uint64 {
	s.gen = st.gen.Add(1)
	st.cur.Store(s)
	return s.gen
}
