// Checkpoint support: congest.Stateful for the blocker-phase node kinds.
// The per-neighbor FIFO queues are maps, so they are walked in sorted
// neighbor order; the collection, children lists and the chosen blocker
// are configuration rebuilt by Compute's phase drivers.
package blocker

import (
	"fmt"

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

// queues walks the per-neighbor FIFO queues.
func (qn *queueNode) queues(c *congest.Codec) {
	congest.Map(c, &qn.q, func(to *int, items *[]msg) {
		c.Int(to)
		for i := range congest.Slice(c, items) {
			walkMsg(c, &(*items)[i])
		}
	})
}

// State implements congest.Stateful.
func (nd *claimNode) State(c *congest.Codec) error {
	nd.queues(c)
	for i := range congest.Slice(c, &nd.children) {
		c.Ints(&nd.children[i])
	}
	c.Bool(&nd.started)
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
	c.Int64s(&nd.cScore)
	if c.Decoding() && c.Err() == nil {
		if len(score) != len(nd.score) {
			return fmt.Errorf("blocker: snapshot score arity mismatch (want %d trees)", len(nd.score))
		}
		copy(nd.score, score)
	}
	return nil
}
