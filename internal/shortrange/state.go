// Checkpoint support: congest.Stateful for the Algorithm 2 node. The
// T_snap copy (snap) is recorded state, not derivable: a restore after
// the snapshot round must reproduce exactly what was frozen then. The
// round the node last executed is not stored: Quiescent and NextWake read
// it only after a Round has set it.
package shortrange

import (
	"fmt"

	"repro/internal/congest"
)

func init() {
	congest.RegisterPayloadCodec("shortrange.estimate", func(c *congest.Codec, m *estimate) {
		c.Int(&m.src)
		c.Int64(&m.d)
		c.Int64(&m.l)
	})
}

// State implements congest.Stateful.
func (nd *node) State(c *congest.Codec) error {
	c.Int(&nd.late)
	c.Int(&nd.missed)
	c.Int64s(&nd.dist)
	c.Int64s(&nd.hops)
	c.Ints(&nd.parent)
	c.Bools(&nd.needSend)
	c.Int64s(&nd.snap)
	k := len(nd.opts.Sources)
	if c.Decoding() && c.Err() == nil && (len(nd.dist) != k || len(nd.hops) != k || len(nd.parent) != k || len(nd.needSend) != k || len(nd.snap) != k) {
		return fmt.Errorf("shortrange: snapshot arity mismatch (want %d sources)", k)
	}
	return nil
}
