package apsp

import (
	"reflect"
	"testing"

	"repro/internal/bellman"
	"repro/internal/congest"
	"repro/internal/faults"
	"repro/internal/graph"
)

// deliveryOrderGraph is the minimal tie-breaking instance for the
// delivery-order invariant: two equal-weight two-hop paths 0→1→3 and
// 0→2→3, so node 3 receives two equally good distance updates in the same
// logical round and its parent choice depends entirely on inbox order.
func deliveryOrderGraph() *graph.Graph {
	g := graph.New(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(2, 3, 1)
	return g
}

// TestDeliveryOrderInvariant pins down the engine assumption that used to
// be implicit: inboxes are ordered by (sender, per-link sequence), never
// by physical arrival order. The same delay script is run twice — under
// the shim's canonical reassembly the result is bit-identical to the
// fault-free run even though link 1→3's packet physically arrives last;
// under ArrivalOrder (the old implicit behavior, kept as a test-only
// knob) the tie flips node 3's parent. If the engine ever regresses to
// arrival-order delivery, the canonical half of this test fails.
func TestDeliveryOrderInvariant(t *testing.T) {
	g := deliveryOrderGraph()
	// Both 1→3 and 2→3 carry their update in the same logical round;
	// delay 1→3's transmission so 2→3 is physically accepted first.
	script := []faults.Event{{Round: 2, From: 1, To: 3, Kind: faults.DelayEvent, Arg: 3}}

	run := func(net congest.Network) *bellman.Result {
		res, err := bellman.Run(g, bellman.Opts{Sources: []int{0}, H: 3, Engine: congest.Config{Network: net}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	if base.Dist[0][3] != 2 {
		t.Fatalf("baseline d(0,3) = %d, want 2", base.Dist[0][3])
	}

	// Canonical reassembly: bit-identical to the fault-free run.
	canon := faults.New(faults.Plan{})
	canon.Script = script
	cres := run(canon)
	if !reflect.DeepEqual(cres.Dist, base.Dist) || !reflect.DeepEqual(cres.Parent, base.Parent) {
		t.Errorf("canonical delivery diverged from fault-free run despite the shim:\nparents %v vs %v",
			cres.Parent, base.Parent)
	}

	// Arrival-order delivery: the identical physical schedule flips the
	// tie. This is the failure mode the invariant exists to prevent —
	// if this half ever stops flipping, the knob is no longer exercising
	// arrival order and the test above proves nothing.
	arrival := faults.New(faults.Plan{})
	arrival.Script = script
	arrival.ArrivalOrder = true
	ares := run(arrival)
	if !reflect.DeepEqual(ares.Dist, base.Dist) {
		t.Errorf("distances must not depend on inbox order on this graph: %v vs %v", ares.Dist, base.Dist)
	}
	if ares.Parent[0][3] == base.Parent[0][3] {
		t.Errorf("arrival-order delivery did not flip node 3's parent (both %d); the tie-breaking instance is broken",
			base.Parent[0][3])
	}
}
