// Checkpoint support: congest.Stateful for the blocker-phase node kinds.
// The per-neighbor FIFO queues are walked in ascending neighbor order; the
// collection, neighbor lists, children lists and the chosen blocker are
// configuration rebuilt by Compute's phase drivers.
package blocker

import (
	"fmt"
	"slices"

	"repro/internal/congest"
)

func init() {
	congest.RegisterPayloadCodec("blocker.msg", walkMsg)
}

func walkMsg(c *congest.Codec, m *msg) {
	c.Int(&m.kind)
	c.Int(&m.tree)
	c.Int64(&m.val)
}

// queues walks the non-empty FIFOs as a congest.Map keyed by neighbor (the
// layout of the map they once were); decoding replaces what Init queued.
func (qn *queueNode) queues(c *congest.Codec) {
	m := make(map[int][]msg, qn.busy)
	for i, items := range qn.q {
		if len(items) > 0 {
			m[qn.nbrs[i]] = items
		}
	}
	congest.Map(c, &m, func(to *int, items *[]msg) {
		c.Int(to)
		for i := range congest.Slice(c, items) {
			walkMsg(c, &(*items)[i])
		}
	})
	if !c.Decoding() || c.Err() != nil {
		return
	}
	qn.q, qn.busy = nil, 0
	for to, items := range m {
		if _, ok := slices.BinarySearch(qn.nbrs, to); !ok {
			c.Fail(fmt.Errorf("blocker: snapshot queues messages to %d, not a neighbor", to))
			return
		}
		for _, x := range items {
			qn.enqueue(to, x)
		}
	}
}

// State implements congest.Stateful.
func (nd *claimNode) State(c *congest.Codec) error {
	nd.queues(c)
	for i := range congest.Slice(c, &nd.children) {
		c.Ints(&nd.children[i])
	}
	if c.Decoding() && c.Err() == nil && len(nd.children) != len(nd.coll.Sources) {
		return fmt.Errorf("blocker: snapshot has %d trees, want %d", len(nd.children), len(nd.coll.Sources))
	}
	return nil
}

// State implements congest.Stateful.
func (nd *scoreNode) State(c *congest.Codec) error {
	nd.queues(c)
	c.Int64s(&nd.score)
	c.Ints(&nd.pending)
	c.Bools(&nd.reported)
	k := len(nd.coll.Sources)
	if c.Decoding() && c.Err() == nil && (len(nd.score) != k || len(nd.pending) != k || len(nd.reported) != k) {
		return fmt.Errorf("blocker: snapshot score arity mismatch (want %d trees)", k)
	}
	return nil
}

// State implements congest.Stateful. The score slice is shared with
// Compute's cross-phase accounting array, so decoding copies into it in
// place.
func (nd *updateNode) State(c *congest.Codec) error {
	nd.queues(c)
	score := nd.score
	c.Int64s(&score)
	if c.Decoding() && c.Err() == nil {
		if len(score) != len(nd.score) {
			return fmt.Errorf("blocker: snapshot score arity mismatch (want %d trees)", len(nd.score))
		}
		copy(nd.score, score)
	}
	return nil
}
