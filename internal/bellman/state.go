// Checkpoint support: congest.Stateful for the round-robin Bellman–Ford
// node. The block snapshot (snap, snapBlock) is part of the protocol
// state — a restored node must keep broadcasting the frozen d^(t-1)
// values of its current block, not its live estimates.
package bellman

import (
	"fmt"

	"repro/internal/congest"
)

func init() {
	// The codec name and field bytes predate the pooled *estimate payload:
	// keeping both identical is what keeps old checkpoint files loading
	// (the registry keys on the concrete type only in the encode
	// direction, and the name only in the decode direction).
	congest.RegisterPayloadCodec("bellman.estimate", func(c *congest.Codec, m **estimate) {
		if *m == nil {
			*m = &estimate{}
		}
		c.Int(&(*m).src)
		c.Int64(&(*m).d)
	})
}

// State implements congest.Stateful.
func (nd *node) State(c *congest.Codec) error {
	c.Int(&nd.cur)
	c.Int(&nd.snapBlock)
	c.Int64s(&nd.dist)
	c.Int64s(&nd.snap)
	c.Int64s(&nd.lastSent)
	c.Ints(&nd.parent)
	k := len(nd.opts.Sources)
	if c.Decoding() && c.Err() == nil && (len(nd.dist) != k || len(nd.snap) != k || len(nd.lastSent) != k || len(nd.parent) != k) {
		return fmt.Errorf("bellman: snapshot arity mismatch (want %d sources)", k)
	}
	return nil
}
