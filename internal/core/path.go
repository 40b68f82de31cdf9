package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Path reconstruction error kinds. The serving layer (internal/oracle)
// calls the walker on untrusted query input and loaded-from-disk matrices,
// so every failure mode is a typed, errors.Is-able error — never a panic
// or an unbounded loop.
var (
	// ErrPathSourceRange: the source index is outside 0..k-1.
	ErrPathSourceRange = errors.New("source index out of range")
	// ErrPathNodeRange: the target node is outside 0..n-1.
	ErrPathNodeRange = errors.New("node out of range")
	// ErrPathUnreachable: the recorded distance is infinite.
	ErrPathUnreachable = errors.New("unreachable")
	// ErrPathCycle: the parent walk revisits nodes beyond any simple
	// path's length (corrupt parent matrix).
	ErrPathCycle = errors.New("parent walk cycles")
	// ErrPathBroken: a non-source node has no parent, or a parent index
	// outside the graph (corrupt parent matrix).
	ErrPathBroken = errors.New("broken parent chain")
	// ErrPathBadArc: a recorded parent arc is not an edge of the graph.
	ErrPathBadArc = errors.New("recorded parent arc not in graph")
	// ErrPathInconsistent: the parent records diverge — the Figure-1
	// phenomenon on hop-bounded runs (use package cssp for consistent
	// h-hop paths).
	ErrPathInconsistent = errors.New("parent records diverge")
	// ErrPathMalformed: the result matrices do not match the graph or each
	// other in shape (truncated or corrupted input).
	ErrPathMalformed = errors.New("malformed result")
)

// PathError is the typed error of path reconstruction: Kind is one of the
// sentinels above (via errors.Is), Source the source index and Node the
// target of the failing query.
type PathError struct {
	Kind         error
	Source, Node int
	Detail       string
}

// Error implements error.
func (e *PathError) Error() string {
	msg := e.Kind.Error()
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return fmt.Sprintf("core: path(source %d, node %d): %s", e.Source, e.Node, msg)
}

// Unwrap makes errors.Is(err, ErrPath...) work.
func (e *PathError) Unwrap() error { return e.Kind }

func pathErr(kind error, i, v int, format string, args ...interface{}) *PathError {
	return &PathError{Kind: kind, Source: i, Node: v, Detail: fmt.Sprintf(format, args...)}
}

// PathView is the accessor form of a result's per-source matrices: the
// walker reads through it so callers that store distances and parents in
// another layout (the oracle's flat shards) reuse the identical walk and
// error semantics without materializing [][] slices. Hops may be nil for
// results that do not record hop counts; hop validation is then skipped.
type PathView struct {
	Sources []int
	Dist    func(i, v int) int64
	Hops    func(i, v int) int64
	Parent  func(i, v int) int
}

// WalkParents rebuilds the recorded shortest path from Sources[i] to v by
// walking parent pointers, validating tightness edge by edge: each step
// (p, u) must satisfy dist[p] + w(p,u) == dist[u] and (when hops are
// recorded) hops[p]+1 == hops[u]. All failures are *PathError.
func WalkParents(g *graph.Graph, pv PathView, i, v int) ([]int, error) {
	if i < 0 || i >= len(pv.Sources) {
		return nil, pathErr(ErrPathSourceRange, i, v, "index %d, %d sources", i, len(pv.Sources))
	}
	if v < 0 || v >= g.N() {
		return nil, pathErr(ErrPathNodeRange, i, v, "node %d, n=%d", v, g.N())
	}
	src := pv.Sources[i]
	if src < 0 || src >= g.N() {
		return nil, pathErr(ErrPathMalformed, i, v, "source node %d outside graph (n=%d)", src, g.N())
	}
	if pv.Dist(i, v) >= graph.Inf {
		return nil, pathErr(ErrPathUnreachable, i, v, "node %d unreachable from %d", v, src)
	}
	var rev []int
	cur := v
	for steps := 0; ; steps++ {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		if steps >= g.N() {
			return nil, pathErr(ErrPathCycle, i, v, "walk exceeded %d nodes", g.N())
		}
		p := pv.Parent(i, cur)
		if p < 0 || p >= g.N() {
			return nil, pathErr(ErrPathBroken, i, v, "parent %d of node %d", p, cur)
		}
		w, ok := g.Weight(p, cur)
		if !ok {
			return nil, pathErr(ErrPathBadArc, i, v, "arc (%d,%d)", p, cur)
		}
		if pv.Dist(i, p)+w != pv.Dist(i, cur) {
			return nil, pathErr(ErrPathInconsistent, i, v,
				"at %d→%d (the Figure-1 phenomenon; use package cssp for consistent h-hop paths)", p, cur)
		}
		if pv.Hops != nil && pv.Hops(i, p)+1 != pv.Hops(i, cur) {
			return nil, pathErr(ErrPathInconsistent, i, v,
				"hop count at %d→%d (the Figure-1 phenomenon; use package cssp for consistent h-hop paths)", p, cur)
		}
		cur = p
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, nil
}

// validateShape checks the result matrices against the graph before any
// indexing: ReconstructPath accepts results deserialized from disk, so a
// shape mismatch must be a typed error, not an index panic.
func validateShape(g *graph.Graph, res *Result, i, v int) *PathError {
	k, n := len(res.Sources), g.N()
	if len(res.Dist) != k || len(res.Parent) != k || (res.Hops != nil && len(res.Hops) != k) {
		return pathErr(ErrPathMalformed, i, v,
			"%d sources but %d dist / %d parent / %d hops rows", k, len(res.Dist), len(res.Parent), len(res.Hops))
	}
	for r := 0; r < k; r++ {
		if len(res.Dist[r]) != n || len(res.Parent[r]) != n || (res.Hops != nil && len(res.Hops[r]) != n) {
			return pathErr(ErrPathMalformed, i, v, "row %d shorter than n=%d", r, n)
		}
	}
	return nil
}

// ReconstructPath rebuilds the recorded shortest path from Sources[i] to v,
// validating every edge (see WalkParents).
//
// For unrestricted runs (h ≥ n−1) the walk always succeeds. For genuinely
// hop-bounded runs it can fail with ErrPathInconsistent even though every
// individual distance is correct: a prefix of an h-hop shortest path need
// not be an h-hop shortest path (the paper's Figure 1), so an ancestor's
// recorded entry may belong to a different path. That is not a defect of
// the run — reconstructing h-hop paths requires the CSSSP machinery of
// Sec. III (package cssp), and the error says so.
func ReconstructPath(g *graph.Graph, res *Result, i, v int) ([]int, error) {
	if res.Parent == nil {
		return nil, pathErr(ErrPathMalformed, i, v, "result has no parent records")
	}
	if err := validateShape(g, res, i, v); err != nil {
		return nil, err
	}
	pv := PathView{
		Sources: res.Sources,
		Dist:    func(i, v int) int64 { return res.Dist[i][v] },
		Parent:  func(i, v int) int { return res.Parent[i][v] },
	}
	if res.Hops != nil {
		pv.Hops = func(i, v int) int64 { return res.Hops[i][v] }
	}
	return WalkParents(g, pv, i, v)
}
