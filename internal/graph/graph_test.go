package graph

import (
	"errors"
	"testing"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(4, true)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("fresh graph: N=%d M=%d", g.N(), g.M())
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 2, 0); err != nil {
		t.Fatalf("AddEdge zero weight must be allowed: %v", err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.MaxWeight() != 5 {
		t.Fatalf("MaxWeight = %d, want 5", g.MaxWeight())
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := New(3, true)
	cases := []struct {
		u, v int
		w    int64
		name string
	}{
		{0, 0, 1, "self-loop"},
		{-1, 1, 1, "negative node"},
		{0, 3, 1, "node out of range"},
		{0, 1, -1, "negative weight"},
		{0, 1, Inf, "weight at Inf"},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("%s: AddEdge(%d,%d,%d) accepted, want error", c.name, c.u, c.v, c.w)
		}
	}
	if g.M() != 0 {
		t.Fatalf("rejected edges must not be added, M=%d", g.M())
	}
}

// TestMaxPathWeight: the bound is (n−1)·maxW, and the error starts exactly
// where a path sum can reach Inf — including products that overflow int64.
func TestMaxPathWeight(t *testing.T) {
	for _, c := range []struct {
		n    int
		maxW int64
		want int64 // -1: ErrPathOverflow
	}{
		{1, 0, 0},
		{5, 7, 28},
		{3, (Inf - 1) / 2, Inf - 1},
		{3, 1 << 60, -1}, // the issue's 0 →(2⁶⁰) 1 →(2⁶⁰) 2
		{2, Inf - 1, Inf - 1},
		{1 << 10, Inf - 1, -1}, // overflows int64, not just Inf
	} {
		g := New(c.n, true)
		if c.n > 1 {
			g.MustAddEdge(0, 1, c.maxW)
		}
		got, err := g.MaxPathWeight()
		if c.want < 0 {
			if !errors.Is(err, ErrPathOverflow) {
				t.Errorf("n=%d maxW=%d: err = %v, want ErrPathOverflow", c.n, c.maxW, err)
			}
		} else if err != nil || got != c.want {
			t.Errorf("n=%d maxW=%d: (%d, %v), want %d", c.n, c.maxW, got, err, c.want)
		}
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 7)
	if len(g.Out(1)) != 1 || g.Out(1)[0].To != 0 || g.Out(1)[0].W != 7 {
		t.Fatalf("undirected edge not mirrored: %+v", g.Out(1))
	}
	if w, ok := g.Weight(1, 0); !ok || w != 7 {
		t.Fatalf("Weight(1,0) = %d,%v", w, ok)
	}
}

func TestCommGraphIsUndirected(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 3) // directed arc, but the link is bidirectional
	if !g.HasLink(1, 0) {
		t.Fatal("communication link must be bidirectional for a directed arc")
	}
	nb := g.CommNeighbors(1)
	if len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("CommNeighbors(1) = %v", nb)
	}
}

func TestParallelEdgesSingleLink(t *testing.T) {
	g := New(2, true)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 0, 9)
	if got := g.Degree(0); got != 1 {
		t.Fatalf("Degree(0) = %d, want 1 (parallel arcs share a link)", got)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 2 {
		t.Fatalf("Weight(0,1) = %d,%v want min parallel weight 2", w, ok)
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
}

func TestReverse(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 3)
	r := g.Reverse()
	if w, ok := r.Weight(1, 0); !ok || w != 2 {
		t.Fatalf("reverse missing arc 1->0: %d,%v", w, ok)
	}
	if _, ok := r.Weight(0, 1); ok {
		t.Fatal("reverse kept forward arc 0->1")
	}
	// Reversing must not change the communication graph.
	if !r.HasLink(0, 1) || !r.HasLink(1, 2) {
		t.Fatal("reverse changed communication links")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, false)
	g.MustAddEdge(0, 1, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
}

func TestTransform(t *testing.T) {
	g := New(3, true)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 5)
	tg := g.Transform(func(w int64) int64 {
		if w == 0 {
			return 1
		}
		return w * 10
	})
	if w, _ := tg.Weight(0, 1); w != 1 {
		t.Fatalf("transform zero->1 failed: %d", w)
	}
	if w, _ := tg.Weight(1, 2); w != 50 {
		t.Fatalf("transform scale failed: %d", w)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(4, true)
	g.MustAddEdge(0, 1, 0)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 0)
	z := g.Subgraph(func(e Edge) bool { return e.W == 0 })
	if z.M() != 2 {
		t.Fatalf("zero subgraph M = %d, want 2", z.M())
	}
	if _, ok := z.Weight(1, 2); ok {
		t.Fatal("zero subgraph kept weighted edge")
	}
}

func TestCommConnectedAndDiameter(t *testing.T) {
	p := Path(5, GenOpts{Seed: 1})
	if !p.CommConnected() {
		t.Fatal("path must be connected")
	}
	if d := p.CommDiameter(); d != 4 {
		t.Fatalf("path diameter = %d, want 4", d)
	}
	g := New(4, false)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.CommConnected() {
		t.Fatal("two components reported connected")
	}
	if d := g.CommDiameter(); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(4, true)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 1, 9)
	g.MustAddEdge(0, 1, 3)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges len = %d", len(es))
	}
	if es[0].From != 0 || es[0].W != 3 || es[1].W != 9 || es[2].From != 2 {
		t.Fatalf("Edges order wrong: %+v", es)
	}
}
