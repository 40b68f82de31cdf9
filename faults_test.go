package apsp

import (
	"reflect"
	"slices"
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
// by physical arrival order. The same delay is suffered twice. Under the
// shim's canonical reassembly the result is bit-identical to the
// fault-free run even though link 1→3's packet physically arrives last;
// handed over in acceptance order (acceptanceOrder, the tempting but
// wrong alternative), the tie flips node 3's parent. If the engine ever regresses
// to arrival-order delivery, the canonical half of this test fails.
func TestDeliveryOrderInvariant(t *testing.T) {
	g := deliveryOrderGraph()
	// Both 1→3 and 2→3 carry their update in the same logical round;
	// delay 1→3's transmission so 2→3 is physically accepted first.
	late := faults.Event{Round: 2, From: 1, To: 3, Kind: faults.DelayEvent, Arg: 3}

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

	// Canonical reassembly: bit-identical to the fault-free run, and the
	// scripted delay of 3 sub-rounds did fire.
	canon := faults.New(faults.Plan{})
	canon.Script = []faults.Event{late}
	cres := run(canon)
	if !reflect.DeepEqual(cres.Dist, base.Dist) || !reflect.DeepEqual(cres.Parent, base.Parent) {
		t.Errorf("canonical delivery diverged from fault-free run despite the shim:\nparents %v vs %v",
			cres.Parent, base.Parent)
	}
	if h := canon.Phys().DelayHist; len(h) <= late.Arg || h[late.Arg] != 1 {
		t.Errorf("delay histogram %v: the scripted delay of %d sub-rounds did not fire once", h, late.Arg)
	}

	// Acceptance-order delivery: the same late arrival flips the tie. This
	// is the failure mode the invariant exists to prevent — if this half
	// ever stops flipping, the tie-breaking instance proves nothing.
	ares := run(&acceptanceOrder{late: late})
	if !reflect.DeepEqual(ares.Dist, base.Dist) {
		t.Errorf("distances must not depend on inbox order on this graph: %v vs %v", ares.Dist, base.Dist)
	}
	if ares.Parent[0][3] == base.Parent[0][3] {
		t.Errorf("acceptance-order delivery did not flip node 3's parent (both %d); the tie-breaking instance is broken",
			base.Parent[0][3])
	}
}

// acceptanceOrder is perfect next-round delivery that hands each inbox
// over in physical acceptance order: the message on link late.From→late.To
// in round late.Round is accepted after the rest of its round's batch.
type acceptanceOrder struct {
	late  faults.Event
	due   int
	batch []congest.Message
}

func (a *acceptanceOrder) Reset(int) { a.due, a.batch = 0, nil }

func (a *acceptanceOrder) Send(r int, batch []congest.Message) error {
	var first, last []congest.Message
	for _, m := range batch {
		if r == a.late.Round && m.From == a.late.From && m.To == a.late.To {
			last = append(last, m)
		} else {
			first = append(first, m)
		}
	}
	a.due, a.batch = r+1, append(first, last...)
	// Group by destination, each inbox in acceptance order.
	slices.SortStableFunc(a.batch, func(x, y congest.Message) int { return x.To - y.To })
	return nil
}

func (a *acceptanceOrder) Collect(r int) []congest.Message {
	if r != a.due {
		return nil
	}
	out := a.batch
	a.batch = nil
	return out
}

func (a *acceptanceOrder) NextDue(after int) int {
	if len(a.batch) == 0 || a.due < after {
		return 0
	}
	return a.due
}

func (a *acceptanceOrder) Pending() int { return len(a.batch) }
