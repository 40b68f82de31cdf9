// Package oracle is the distance-oracle serving layer over precomputed
// APSP results: the second half of the paper's bargain. Agarwal &
// Ramachandran frame weighted APSP as oracle precomputation — pay
// Õ(n^{5/4}) CONGEST rounds once, then answer any (s,v) distance or path
// query from the stored distance and parent matrices — and this package
// serves those answers over HTTP at memory speed.
//
// The stored form is an immutable column store: three flat row-major
// columns over the k source rows — distances (int64), hop counts and
// parent pointers (int32) — indexed row·n+v. A Snapshot is never mutated
// after Build; the serving Store swaps whole snapshots through one atomic
// pointer, so queries take no lock, see exactly one generation end-to-end,
// and a background recompute can publish a replacement with zero failed or
// mixed-generation queries (the hot-swap gate in swap_test.go holds the
// receipt).
//
// Path queries lazily materialize the recorded path by the hardened
// core.WalkParents walker (shared error taxonomy with ReconstructPath),
// behind a small LRU keyed by (generation, row, target).
package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
)

// BuildInput is a computed result in matrix form, the common denominator
// of every protocol family's Result struct. Hops and Parent are optional
// (nil disables path serving; hops additionally gate hop validation).
type BuildInput struct {
	// Alg names the protocol family that produced the matrices.
	Alg string
	// Sources[i] is the source node of row i.
	Sources []int
	// Dist[i][v] is the distance from Sources[i] to v (graph.Inf if
	// unreachable).
	Dist [][]int64
	// Hops[i][v] is the hop count of the recorded path (optional).
	Hops [][]int64
	// Parent[i][v] is the predecessor of v on the recorded path
	// (optional; -1 = none).
	Parent [][]int
	// Stats is the CONGEST cost paid to compute the matrices.
	Stats congest.Stats
	// Phys is the delivery shim's physical cost when the computation ran
	// under a fault plan (nil = perfect delivery).
	Phys *faults.PhysStats
}

// Snapshot is one immutable, queryable generation of the oracle.
type Snapshot struct {
	gen     uint64 // assigned by Store.Publish; 0 until published
	alg     string
	n       int
	sources []int
	srcRow  map[int]int
	dist    []int64 // dist[row*n+v]
	hops    []int32 // same indexing; nil when hops are not recorded
	parent  []int32 // same indexing; nil when parents are not recorded
	g       *graph.Graph
	stats   congest.Stats
	phys    *faults.PhysStats
	fp      uint64 // graph fingerprint (checkpoint.Fingerprint)
}

// BuildOpts tunes snapshot construction.
type BuildOpts struct {
	// Fingerprint pins the graph identity (informative; /healthz reports it).
	Fingerprint uint64
}

// Build repacks a computed result into the column store. The
// input is validated like untrusted data: shape mismatches and
// out-of-range parents are errors, not panics — snapshots can be built
// from deserialized files.
func Build(g *graph.Graph, in BuildInput, opts BuildOpts) (*Snapshot, error) {
	n, k := g.N(), len(in.Sources)
	if k == 0 {
		return nil, fmt.Errorf("oracle: no sources")
	}
	if len(in.Dist) != k {
		return nil, fmt.Errorf("oracle: %d sources but %d distance rows", k, len(in.Dist))
	}
	if in.Hops != nil && len(in.Hops) != k {
		return nil, fmt.Errorf("oracle: %d sources but %d hop rows", k, len(in.Hops))
	}
	if in.Parent != nil && len(in.Parent) != k {
		return nil, fmt.Errorf("oracle: %d sources but %d parent rows", k, len(in.Parent))
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

	snap := &Snapshot{
		alg:     in.Alg,
		n:       n,
		sources: append([]int(nil), in.Sources...),
		srcRow:  srcRow,
		dist:    make([]int64, k*n),
		g:       g,
		stats:   in.Stats,
		phys:    in.Phys,
		fp:      opts.Fingerprint,
	}
	if in.Hops != nil {
		snap.hops = make([]int32, k*n)
	}
	if in.Parent != nil {
		snap.parent = make([]int32, k*n)
	}

	// Repack in parallel by row range: each goroutine copies (and
	// range-checks) buildRows rows, so building a large snapshot scales
	// with cores.
	const buildRows = 64
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for lo := 0; lo < k; lo += buildRows {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			hi := lo + buildRows
			if hi > k {
				hi = k
			}
			for i := lo; i < hi; i++ {
				if len(in.Dist[i]) != n {
					fail(&mu, &firstErr, fmt.Errorf("oracle: distance row %d has %d entries, want %d", i, len(in.Dist[i]), n))
					return
				}
				copy(snap.dist[i*n:(i+1)*n], in.Dist[i])
				if snap.hops != nil {
					if len(in.Hops[i]) != n {
						fail(&mu, &firstErr, fmt.Errorf("oracle: hop row %d has %d entries, want %d", i, len(in.Hops[i]), n))
						return
					}
					for v, h := range in.Hops[i] {
						if h < -1 || h > int64(n) {
							fail(&mu, &firstErr, fmt.Errorf("oracle: hop count %d at (%d,%d) out of range", h, i, v))
							return
						}
						snap.hops[i*n+v] = int32(h)
					}
				}
				if snap.parent != nil {
					if len(in.Parent[i]) != n {
						fail(&mu, &firstErr, fmt.Errorf("oracle: parent row %d has %d entries, want %d", i, len(in.Parent[i]), n))
						return
					}
					for v, p := range in.Parent[i] {
						if p < -1 || p >= n {
							fail(&mu, &firstErr, fmt.Errorf("oracle: parent %d at (%d,%d) outside graph", p, i, v))
							return
						}
						snap.parent[i*n+v] = int32(p)
					}
				}
			}
		}(lo)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return snap, nil
}

func fail(mu *sync.Mutex, dst *error, err error) {
	mu.Lock()
	if *dst == nil {
		*dst = err
	}
	mu.Unlock()
}

// Gen is the generation assigned at publish time (0 = unpublished).
func (s *Snapshot) Gen() uint64 { return s.gen }

// Alg names the protocol family that produced the snapshot.
func (s *Snapshot) Alg() string { return s.alg }

// N is the number of nodes; K the number of source rows.
func (s *Snapshot) N() int { return s.n }

// K is the number of source rows.
func (s *Snapshot) K() int { return len(s.sources) }

// Sources returns the source node per row (callers must not mutate).
func (s *Snapshot) Sources() []int { return s.sources }

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
func (s *Snapshot) DistAt(row, v int) int64 { return s.dist[row*s.n+v] }

// HasPaths reports whether parent pointers were recorded.
func (s *Snapshot) HasPaths() bool { return s.parent != nil }

// HasHops reports whether hop counts were recorded.
func (s *Snapshot) HasHops() bool { return s.hops != nil }

// hopAt / parentAt read the int32 columns (only called when recorded).
func (s *Snapshot) hopAt(row, v int) int64 { return int64(s.hops[row*s.n+v]) }

func (s *Snapshot) parentAt(row, v int) int { return int(s.parent[row*s.n+v]) }

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
		Sources: s.sources,
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
