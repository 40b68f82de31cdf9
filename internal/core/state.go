// Checkpoint support: the pipelined (h,k)-SSP node's side of the
// congest.Stateful contract. List.State (list.go) walks everything
// round-crossing in the list; the node appends the diagnostics counters
// and E-CONV snapshots. Derived fields (srcOf, inFrom/inWt, gamma)
// are rebuilt, not stored.
package core

import "repro/internal/congest"

func init() {
	// The codec name predates the pooled *wire payload; a snapshot finds
	// the codec by it.
	congest.RegisterPayloadCodec("core.wire", func(c *congest.Codec, m **wire) {
		if *m == nil {
			*m = &wire{}
		}
		w := *m
		c.Int64(&w.d)
		c.Int64(&w.l)
		c.Int(&w.src)
		congest.Varint(c, &w.nu)
	})
}

// State implements congest.Stateful. The diagnostics follow the list in
// their historical checkpoint order (testdata/compat/core-*.ckpt pin it).
// The third slot is a retired counter that the pinned layout keeps: it is
// written as 0 and read into a discard.
func (nd *node) State(c *congest.Codec) error {
	if err := nd.pl.State(c); err != nil {
		return err
	}
	pc := &nd.pl.Counters
	var missed int
	for _, x := range []*int{&pc.Late, &pc.Collisions, &missed, &nd.inv1, &nd.inv2, &pc.MaxList, &pc.MaxPer} {
		c.Int(x)
	}
	for _, x := range []*int64{&pc.Inserts, &pc.Evicts, &pc.NuDrops, &pc.DupDrops} {
		c.Int64(x)
	}
	congest.Map(c, &nd.snaps, func(r *int, row *[]int64) {
		c.Int(r)
		c.Int64s(row)
	})
	return nil
}
