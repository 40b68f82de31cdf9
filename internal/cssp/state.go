// Checkpoint support: congest.Stateful for the parent re-selection node.
// The announcement tables are maps, so they are walked in sorted neighbor
// order; the collection, k and the in-arc weights are configuration
// rebuilt by Init. The round the node last executed is not stored:
// Quiescent and NextWake read it only after a Round has set it.
package cssp

import (
	"fmt"

	"repro/internal/congest"
)

func init() {
	congest.RegisterPayloadCodec("cssp.resel", func(c *congest.Codec, m *reselMsg) {
		c.Int(&m.kind)
		c.Int(&m.src)
		c.Int64(&m.d)
		c.Int64(&m.l)
	})
}

// State implements congest.Stateful.
func (nd *reselNode) State(c *congest.Codec) error {
	c.Bools(&nd.valid)
	c.Ints(&nd.invQ)
	if c.Decoding() && c.Err() == nil && len(nd.valid) != nd.k {
		return fmt.Errorf("cssp: snapshot has %d trees, want %d", len(nd.valid), nd.k)
	}
	for i := range nd.nb {
		congest.Map(c, &nd.nb[i], func(q *int, v *nbVal) {
			c.Int(q)
			c.Int64(&v.d)
			c.Int64(&v.l)
		})
	}
	return nil
}
