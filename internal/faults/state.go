// Checkpoint support: the Network's side of the congest.Stateful
// contract. A snapshot is taken at a round barrier, where the reliability
// shim's per-round scratch (in-air flights, each link's packet) is
// provably empty: every link's packet is delivered and acknowledged.
// What must survive is the state that carries meaning across rounds —
// per-link sequence numbers, the staged batch the last barrier
// reassembled, and the cumulative physical statistics.
//
// The fired-crash bookkeeping is deliberately NOT part of the snapshot:
// see Network.fired.
package faults

import (
	"fmt"

	"repro/internal/congest"
)

// State implements congest.Stateful. A restoring Network must be
// configured identically to the snapshotted one (same Plan and Script);
// only the dynamic state is restored. The node count comes first, and
// internal/difftest's raw-delivery injector writes a negative one, so
// neither network resumes the other's snapshot.
func (nw *Network) State(c *congest.Codec) error {
	n := nw.n
	c.Int(&n)
	if c.Decoding() && c.Err() == nil && n != nw.n {
		return fmt.Errorf("faults: snapshot is for n=%d, network has n=%d", n, nw.n)
	}

	congest.Map(c, &nw.links, func(k *uint64, lp **link) {
		if *lp == nil {
			*lp = &link{}
		}
		l := *lp
		if l.unacked || l.got {
			c.Fail(fmt.Errorf("faults: snapshot of link %d→%d mid-barrier (unacknowledged packet)", l.from, l.to))
			return
		}
		c.Int(&l.from)
		c.Int(&l.to)
		if c.Decoding() && (!nw.node(l.from) || !nw.node(l.to)) {
			c.Fail(fmt.Errorf("faults: snapshot link %d→%d outside n=%d", l.from, l.to, nw.n))
			return
		}
		*k = linkKey(l.from, l.to)
		c.Int64(&l.seq)
	})

	// The staged batch, due in round due.
	c.Int(&nw.due)
	for i := range congest.Slice(c, &nw.staged) {
		m := &nw.staged[i]
		c.Message(m)
		if c.Decoding() && (!nw.node(m.From) || !nw.node(m.To)) {
			c.Fail(fmt.Errorf("faults: snapshot message %d→%d outside n=%d", m.From, m.To, nw.n))
		}
	}
	if c.Decoding() && len(nw.staged) > 0 && nw.due <= 0 {
		c.Fail(fmt.Errorf("faults: snapshot stages %d messages for round %d", len(nw.staged), nw.due))
	}

	// Cumulative physical statistics: a resumed run re-executes earlier
	// phases (re-accumulating their physical cost identically), then this
	// snapshot resets them to the original values, replacing the
	// re-executed prefix with itself plus the skipped rounds.
	nw.phys.Walk(c)
	return nil
}

// node reports whether v is a node of this network.
func (nw *Network) node(v int) bool { return v >= 0 && v < nw.n }

// Walk walks the counters through a checkpoint codec (the Network's state
// and obs.Recorder's per-phase accounting both carry them).
func (s *PhysStats) Walk(c *congest.Codec) {
	for _, x := range []*int64{&s.DataSends, &s.Retransmits, &s.DupCopies, &s.DupDeliveries,
		&s.DataDrops, &s.AckDrops, &s.AckSends, &s.Delivered, &s.SubRounds} {
		c.Int64(x)
	}
	c.Int64s(&s.DelayHist)
}
