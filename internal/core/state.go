// Checkpoint support: the pipelined (h,k)-SSP node's side of the
// congest.Stateful contract. List.EncodeState (list.go) captures
// everything round-crossing in the list; the node appends the diagnostics
// counters and E-CONV snapshots. Derived fields (srcOf, inFrom/inWt, gamma)
// are rebuilt, not stored.
package core

import (
	"sort"

	"repro/internal/congest"
)

func init() {
	// The codec name and field bytes predate the pooled *wire payload:
	// keeping both identical keeps historical checkpoint files loading.
	congest.RegisterPayloadCodec("core.wire", &wire{},
		func(enc *congest.StateEncoder, p congest.Payload) {
			m := p.(*wire)
			enc.Int64(m.d)
			enc.Int64(m.l)
			enc.Int(m.src)
			enc.Bool(m.sp)
			enc.Int64(int64(m.nu))
		},
		func(dec *congest.StateDecoder) (congest.Payload, error) {
			m := &wire{d: dec.Int64(), l: dec.Int64(), src: dec.Int(), sp: dec.Bool(), nu: int32(dec.Int64())}
			return m, dec.Err()
		})
}

// counters lists the diagnostics in their historical checkpoint order
// (testdata/compat/core-*.ckpt pin it), for the encoder and the decoder.
func (nd *node) counters() ([7]*int, [4]*int64) {
	c := &nd.pl.Counters
	return [7]*int{&c.Late, &c.Collisions, &c.Missed, &nd.inv1, &nd.inv2, &c.MaxList, &c.MaxPer},
		[4]*int64{&c.Inserts, &c.Evicts, &c.NuDrops, &c.DupDrops}
}

// EncodeState implements congest.Stateful.
func (nd *node) EncodeState(enc *congest.StateEncoder) {
	pl := &nd.pl
	pl.EncodeState(enc)

	ints, int64s := nd.counters()
	for _, c := range ints {
		enc.Int(*c)
	}
	for _, c := range int64s {
		enc.Int64(*c)
	}

	enc.Int(len(nd.snaps))
	rounds := make([]int, 0, len(nd.snaps))
	for r := range nd.snaps {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		enc.Int(r)
		enc.Int64s(nd.snaps[r])
	}
}

// DecodeState implements congest.Stateful.
func (nd *node) DecodeState(dec *congest.StateDecoder) error {
	pl := &nd.pl
	if err := pl.DecodeState(dec); err != nil {
		return err
	}

	ints, int64s := nd.counters()
	for _, c := range ints {
		*c = dec.Int()
	}
	for _, c := range int64s {
		*c = dec.Int64()
	}

	ns := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	nd.snaps = nil
	if ns > 0 {
		nd.snaps = make(map[int][]int64, ns)
		for i := 0; i < ns; i++ {
			r := dec.Int()
			nd.snaps[r] = dec.Int64s()
		}
	}
	return dec.Err()
}
