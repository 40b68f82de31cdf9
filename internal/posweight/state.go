// Checkpoint support: congest.Stateful for the single-estimate pipelined
// node. Derived fields (srcIdx, inW) are rebuilt by Init; everything that
// evolves across rounds — estimates, parents, the (dist, src)-sorted send
// list, pending flags and schedule diagnostics — round-trips here. The
// round the node last executed does not: Quiescent reads it only after a
// Round has set it.
package posweight

import (
	"fmt"

	"repro/internal/congest"
)

func init() {
	congest.RegisterPayloadCodec("posweight.estimate", func(c *congest.Codec, m *estimate) {
		c.Int(&m.src)
		c.Int64(&m.d)
	})
}

// State implements congest.Stateful.
func (nd *node) State(c *congest.Codec) error {
	c.Int(&nd.late)
	c.Int(&nd.missed)
	c.Int64s(&nd.dist)
	c.Ints(&nd.parent)
	c.Bools(&nd.needSend)
	c.Ints(&nd.list)
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	k := len(nd.opts.Sources)
	if len(nd.dist) != k || len(nd.parent) != k || len(nd.needSend) != k {
		return fmt.Errorf("posweight: snapshot arity mismatch (want %d sources)", k)
	}
	for _, i := range nd.list {
		if i < 0 || i >= k {
			return fmt.Errorf("posweight: snapshot list index %d out of range", i)
		}
	}
	return nil
}
