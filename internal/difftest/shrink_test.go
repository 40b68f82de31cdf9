package difftest

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph"
)

func TestFaultInputDumpParseRoundTrip(t *testing.T) {
	g := graph.New(4, true)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 3, 0)
	g.MustAddEdge(2, 3, 7)
	in := FaultInput{
		G:       g,
		Sources: []int{0, 2},
		H:       3,
		Events: []faults.Event{
			{Round: 1, From: 0, To: 1, Kind: faults.DropEvent},
			{Round: 2, From: 1, To: 3, Kind: faults.DelayEvent, Arg: 2},
			{Round: 2, From: 2, To: 3, Kind: faults.DupEvent, Arg: 1},
		},
	}
	d := in.Dump()
	got, err := ParseFaultInput(d)
	if err != nil {
		t.Fatalf("ParseFaultInput(Dump): %v\n%s", err, d)
	}
	if got.Dump() != d {
		t.Fatalf("round trip changed the fixture:\n%s\nvs\n%s", d, got.Dump())
	}
	if got.G.N() != 4 || got.G.M() != 3 || got.H != 3 ||
		!reflect.DeepEqual(got.Sources, in.Sources) ||
		!reflect.DeepEqual(got.Events, in.Events) {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

func TestParseFaultInputTolerationAndErrors(t *testing.T) {
	ok := "n=3 directed=true sources=0 h=2\n# comment\n\ne 0 1 1\nf round=1 from=0 to=1 kind=drop\n"
	in, err := ParseFaultInput(ok)
	if err != nil {
		t.Fatalf("fixture with comments/blanks rejected: %v", err)
	}
	if in.G.M() != 1 || len(in.Events) != 1 {
		t.Fatalf("fixture misparsed: %+v", in)
	}
	for _, bad := range []string{
		"",
		"directed=true sources=0 h=2",            // no n
		"n=3 bogus=1 sources=0 h=2",              // unknown header key
		"n=3 sources=0 h=2\ne 0 1",               // short edge line
		"n=3 sources=0 h=2\nf round=1 kind=drop", // short event line
		"n=3 sources=0 h=2\nwhat is this",        // unrecognized line
		"n=3 sources=0 h=2\nf round=1 from=0 to=1 kind=meteor", // bad kind
	} {
		if _, err := ParseFaultInput(bad); err == nil {
			t.Fatalf("ParseFaultInput accepted bad fixture %q", bad)
		}
	}
}

// TestShrinkSynthetic drives Shrink with a transparent failure predicate so
// the minimal form is known exactly: the "bug" fires iff the graph still
// has an edge 0->1 with weight >= 1 and the script still has a drop on
// link 0->1. Everything else in the instance is noise Shrink must remove.
func TestShrinkSynthetic(t *testing.T) {
	g := graph.Random(10, 25, graph.GenOpts{Seed: 7, MaxW: 9, Directed: true})
	g.MustAddEdge(0, 1, 6) // the load-bearing edge (Random may not include it)
	in := FaultInput{G: g, Sources: []int{0, 3}, H: 5}
	for r := 0; r < 6; r++ {
		in.Events = append(in.Events,
			faults.Event{Round: r, From: 0, To: 1, Kind: faults.DelayEvent, Arg: 3},
			faults.Event{Round: r, From: 2, To: 4, Kind: faults.DropEvent},
		)
	}
	in.Events = append(in.Events, faults.Event{Round: 2, From: 0, To: 1, Kind: faults.DropEvent})

	fails := func(c FaultInput) bool {
		edge := false
		for _, e := range c.G.Edges() {
			if e.From == 0 && e.To == 1 && e.W >= 1 {
				edge = true
			}
		}
		drop := false
		for _, ev := range c.Events {
			if ev.Kind == faults.DropEvent && ev.From == 0 && ev.To == 1 {
				drop = true
			}
		}
		return edge && drop
	}

	got := Shrink(in, fails)
	if !fails(got) {
		t.Fatalf("Shrink returned a non-failing input:\n%s", got.Dump())
	}
	if got.G.N() != 2 || got.G.M() != 1 || len(got.Events) != 1 || len(got.Sources) != 1 {
		t.Fatalf("Shrink left noise behind (want n=2 m=1 events=1 sources=1):\n%s", got.Dump())
	}
	if got.G.Edges()[0].W != 1 {
		t.Fatalf("Shrink did not minimize the edge weight:\n%s", got.Dump())
	}
}

func TestShrinkRejectsNonFailure(t *testing.T) {
	g := graph.New(3, true)
	g.MustAddEdge(0, 1, 1)
	in := FaultInput{G: g, Sources: []int{0}, H: 2}
	got := Shrink(in, func(FaultInput) bool { return false })
	if got.G.N() != 3 || got.G.M() != 1 {
		t.Fatalf("Shrink modified a non-failing input:\n%s", got.Dump())
	}
}

// bellmanDiverges is the standard regression-fixture predicate: replaying
// the recorded fault script over raw (Unreliable) delivery makes
// Bellman-Ford's <=H-hop distances differ from the fault-free run. Only
// distances are compared: min-merges are inbox-order independent.
func bellmanDiverges(in FaultInput) bool {
	clean, err := bellman.Run(in.G, bellman.Opts{Sources: in.Sources, H: in.H})
	if err != nil {
		return false
	}
	nw := &Unreliable{Script: in.Events}
	dirty, err := bellman.Run(in.G, bellman.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Network: nw}})
	if err != nil {
		return true // faults broke the run outright: also a divergence
	}
	return !reflect.DeepEqual(clean.Dist, dirty.Dist)
}

// TestShrinkMinimizesInjectedDivergence is the end-to-end acceptance check:
// seed a real divergence by running Bellman-Ford over chaotic unreliable
// delivery, freeze the recorded fault script, and shrink the (graph,
// sources, script) triple. The minimized counterexample must be tiny —
// at most 6 nodes and 2 fault events.
func TestShrinkMinimizesInjectedDivergence(t *testing.T) {
	in, seed := seedDivergence(t)
	t.Logf("seed %d diverges with n=%d m=%d events=%d", seed, in.G.N(), in.G.M(), len(in.Events))

	got := Shrink(in, bellmanDiverges)
	if !bellmanDiverges(got) {
		t.Fatalf("shrunk input no longer diverges:\n%s", got.Dump())
	}
	if got.G.N() > 6 {
		t.Errorf("shrunk graph has %d nodes, want <= 6", got.G.N())
	}
	if len(got.Events) > 2 {
		t.Errorf("shrunk script has %d events, want <= 2", len(got.Events))
	}
	if t.Failed() {
		t.Fatalf("under-shrunk counterexample:\n%s", got.Dump())
	}
	SortEvents(got.Events)
	t.Logf("minimized counterexample:\n%s", got.Dump())

	// Regenerate the committed regression fixture with
	//   DIFFTEST_WRITE_FIXTURE=1 go test -run ShrinkMinimizes ./internal/difftest/
	if os.Getenv("DIFFTEST_WRITE_FIXTURE") != "" {
		path := filepath.Join("testdata", "bellman-drop.fault")
		body := "# Minimized by TestShrinkMinimizesInjectedDivergence: replaying the\n" +
			"# fault script over unreliable delivery changes Bellman-Ford distances.\n" +
			got.Dump()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
		t.Logf("wrote %s", path)
	}
}

// seedDivergence scans chaos seeds until raw delivery visibly corrupts a
// Bellman-Ford run whose recorded script replays to the same divergence.
func seedDivergence(t *testing.T) (FaultInput, int64) {
	t.Helper()
	for seed := int64(1); seed <= 64; seed++ {
		g := graph.Random(10, 28, graph.GenOpts{Seed: seed, MaxW: 6, Directed: true})
		in := FaultInput{G: g, Sources: []int{0}, H: 4}
		nw := &Unreliable{Plan: faults.Plan{Seed: seed, MaxDelay: 2, Drop: 0.3, Dup: 0.1}}
		if _, err := bellman.Run(g, bellman.Opts{Sources: in.Sources, H: in.H, Engine: congest.Config{Network: nw}}); err != nil {
			continue
		}
		in.Events = nw.Recorded()
		if len(in.Events) > 0 && bellmanDiverges(in) {
			return in, seed
		}
	}
	t.Fatal("no chaos seed in 1..64 produced a replayable divergence")
	return FaultInput{}, 0
}

// TestRegressionFixtures replays every committed counterexample under
// testdata/ on each run: each must still parse, still diverge, and still
// dump back to a canonical form ParseFaultInput accepts.
func TestRegressionFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.fault"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed fixtures under testdata/ (want at least bellman-drop.fault)")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			in, err := ParseFaultInput(string(raw))
			if err != nil {
				t.Fatalf("fixture does not parse: %v", err)
			}
			if !bellmanDiverges(in) {
				t.Fatalf("fixture no longer reproduces the divergence:\n%s", in.Dump())
			}
			if _, err := ParseFaultInput(in.Dump()); err != nil {
				t.Fatalf("fixture dump does not re-parse: %v", err)
			}
			if !strings.Contains(string(raw), in.Dump()) {
				t.Fatalf("committed fixture is not in canonical Dump form; regenerate with DIFFTEST_WRITE_FIXTURE=1")
			}
		})
	}
}
