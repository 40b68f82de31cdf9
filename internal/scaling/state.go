// Checkpoint support: congest.Stateful for the per-bit-phase node. The
// round-crossing state is exactly core.List's; scaledW and prev are built
// by Run's node factory from the re-executed earlier phases, so they are
// in place before DecodeState runs and are not stored.
package scaling

import "repro/internal/congest"

func init() {
	congest.RegisterPayloadCodec("scaling.phaseMsg", phaseMsg{},
		func(enc *congest.StateEncoder, p congest.Payload) {
			m := p.(phaseMsg)
			enc.Int(m.src)
			enc.Int64(m.d)
			enc.Int64(m.l)
			enc.Int64(m.prevY)
		},
		func(dec *congest.StateDecoder) (congest.Payload, error) {
			m := phaseMsg{src: dec.Int(), d: dec.Int64(), l: dec.Int64(), prevY: dec.Int64()}
			return m, dec.Err()
		})
}

// EncodeState implements congest.Stateful.
func (nd *phaseNode) EncodeState(enc *congest.StateEncoder) { nd.pl.EncodeState(enc) }

// DecodeState implements congest.Stateful.
func (nd *phaseNode) DecodeState(dec *congest.StateDecoder) error { return nd.pl.DecodeState(dec) }
