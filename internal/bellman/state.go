// Checkpoint support: congest.Stateful for the round-robin Bellman–Ford
// node: the estimates and their hop counts, the last broadcast distances
// and the parents. No block snapshot is needed: by the slot argument
// (bellman.go) the value a slot sends is the one its block started with,
// so a restored node sends exactly what the killed one would have. The
// round a node last executed is not stored either: Quiescent and NextWake
// read it only after a Round has set it.
package bellman

import (
	"fmt"

	"repro/internal/congest"
)

func init() {
	// The codec name and the field order (src, d, l) are the checkpoint
	// format of an in-flight estimate: changing either refuses old files.
	congest.RegisterPayloadCodec("bellman.estimate", func(c *congest.Codec, m **estimate) {
		if *m == nil {
			*m = &estimate{}
		}
		c.Int(&(*m).src)
		c.Int64(&(*m).d)
		c.Int64(&(*m).l)
	})
}

// State implements congest.Stateful.
func (nd *node) State(c *congest.Codec) error {
	c.Int64s(&nd.dist)
	c.Int64s(&nd.hops)
	c.Int64s(&nd.lastSent)
	c.Ints(&nd.parent)
	k := len(nd.opts.Sources)
	if c.Decoding() && c.Err() == nil && (len(nd.dist) != k || len(nd.hops) != k || len(nd.lastSent) != k || len(nd.parent) != k) {
		return fmt.Errorf("bellman: snapshot arity mismatch (want %d sources)", k)
	}
	return nil
}
