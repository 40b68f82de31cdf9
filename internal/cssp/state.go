// Checkpoint support: congest.Stateful for the parent re-selection node.
// The announcement tables are maps, so they are encoded in sorted neighbor
// order; the collection, k and the in-arc weights are configuration
// rebuilt by Init.
package cssp

import (
	"fmt"
	"sort"

	"repro/internal/congest"
)

func init() {
	congest.RegisterPayloadCodec("cssp.resel", reselMsg{},
		func(enc *congest.StateEncoder, p congest.Payload) {
			m := p.(reselMsg)
			enc.Int(m.kind)
			enc.Int(m.src)
			enc.Int64(m.d)
			enc.Int64(m.l)
		},
		func(dec *congest.StateDecoder) (congest.Payload, error) {
			m := reselMsg{kind: dec.Int(), src: dec.Int(), d: dec.Int64(), l: dec.Int64()}
			return m, dec.Err()
		})
}

// EncodeState implements congest.Stateful.
func (nd *reselNode) EncodeState(enc *congest.StateEncoder) {
	enc.Int(nd.cur)
	enc.Bool(nd.checked)
	enc.Bools(nd.valid)
	enc.Ints(nd.invQ)
	for _, tab := range nd.nb {
		froms := make([]int, 0, len(tab))
		for q := range tab {
			froms = append(froms, q)
		}
		sort.Ints(froms)
		enc.Int(len(froms))
		for _, q := range froms {
			enc.Int(q)
			enc.Int64(tab[q].d)
			enc.Int64(tab[q].l)
		}
	}
}

// DecodeState implements congest.Stateful.
func (nd *reselNode) DecodeState(dec *congest.StateDecoder) error {
	nd.cur = dec.Int()
	nd.checked = dec.Bool()
	nd.valid = dec.Bools()
	nd.invQ = dec.Ints()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(nd.valid) != nd.k {
		return fmt.Errorf("cssp: snapshot has %d trees, want %d", len(nd.valid), nd.k)
	}
	for i := range nd.nb {
		nd.nb[i] = make(map[int]nbVal)
		for n := dec.Int(); n > 0 && dec.Err() == nil; n-- {
			q := dec.Int()
			nd.nb[i][q] = nbVal{d: dec.Int64(), l: dec.Int64()}
		}
	}
	return dec.Err()
}
