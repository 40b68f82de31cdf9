// Checkpoint support: congest.Stateful for the per-bit-phase node. The
// round-crossing state is exactly core.List's; scaledW and prev are built
// by Run's node factory from the re-executed earlier phases, so they are
// in place before State decodes and are not stored.
package scaling

import "repro/internal/congest"

func init() {
	congest.RegisterPayloadCodec("scaling.phaseMsg", func(c *congest.Codec, m *phaseMsg) {
		c.Int(&m.src)
		c.Int64(&m.d)
		c.Int64(&m.l)
		c.Int64(&m.prevY)
	})
}

// State implements congest.Stateful.
func (nd *phaseNode) State(c *congest.Codec) error { return nd.pl.State(c) }
