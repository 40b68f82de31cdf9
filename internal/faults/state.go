// Checkpoint support: the Network's side of the congest.Stateful
// contract. A snapshot is taken at a round barrier, where the reliability
// shim's per-round scratch (outstanding windows, in-air flights,
// acceptance logs, holdback buffers) is provably empty, and every link's
// window is delivered and acknowledged, so its ACK and delivery frontiers
// both equal its last sequence number. What must survive is the state
// that carries meaning across rounds — per-link sequence numbers, the
// queued (delayed) logical deliveries, the PRF flight cursor, and the
// cumulative physical statistics and recorded event log.
//
// The fired-crash bookkeeping is deliberately NOT part of the snapshot:
// see Network.fired.
package faults

import (
	"fmt"

	"repro/internal/congest"
)

// State implements congest.Stateful. A restoring Network must be
// configured identically to the snapshotted one (same Plan, Script,
// Unreliable mode); only the dynamic state is restored.
func (nw *Network) State(c *congest.Codec) error {
	n, unreliable := nw.n, nw.Unreliable
	c.Int(&n)
	c.Bool(&unreliable)
	if c.Decoding() && c.Err() == nil {
		if n != nw.n {
			return fmt.Errorf("faults: snapshot is for n=%d, network has n=%d", n, nw.n)
		}
		if unreliable != nw.Unreliable {
			return fmt.Errorf("faults: snapshot Unreliable=%v, network has %v", unreliable, nw.Unreliable)
		}
	}

	congest.Map(c, &nw.links, func(k *uint64, lp **link) {
		if *lp == nil {
			*lp = &link{}
		}
		l := *lp
		if len(l.out) != 0 || len(l.got) != 0 || len(l.hold) != 0 || l.ackedTo != l.nextSeq || l.delivered != l.nextSeq {
			c.Fail(fmt.Errorf("faults: snapshot of link %d→%d mid-barrier (outstanding window)", l.from, l.to))
			return
		}
		c.Int(&l.from)
		c.Int(&l.to)
		if c.Decoding() && (!nw.node(l.from) || !nw.node(l.to)) {
			c.Fail(fmt.Errorf("faults: snapshot link %d→%d outside n=%d", l.from, l.to, nw.n))
			return
		}
		*k = linkKey(l.from, l.to)
		c.Int64(&l.nextSeq)
		l.ackedTo, l.delivered = l.nextSeq, l.nextSeq
	})

	// Queued logical deliveries, in due-round order. pending is their
	// count: enqueue adds to it and Collect takes a due round's whole queue.
	if c.Decoding() {
		nw.pending = 0
	}
	congest.Map(c, &nw.ready, func(r *int, q *[]queued) {
		c.Int(r)
		for i := range congest.Slice(c, q) {
			nw.message(c, &(*q)[i].m)
			c.Uint64(&(*q)[i].key)
		}
		if c.Decoding() {
			nw.pending += len(*q)
		}
	})

	c.Int64(&nw.flightCtr)

	// Cumulative physical statistics and the recorded event log: a resumed
	// run re-executes earlier phases (re-accumulating their physical cost
	// identically), then this snapshot resets both to the original values,
	// replacing the re-executed prefix with itself plus the skipped rounds.
	nw.phys.Walk(c)
	for i := range congest.Slice(c, &nw.recorded) {
		e := &nw.recorded[i]
		c.Int(&e.Round)
		c.Int(&e.From)
		c.Int(&e.To)
		congest.Varint(c, &e.Kind)
		c.Int(&e.Arg)
	}
	return nil
}

// node reports whether v is a node of this network.
func (nw *Network) node(v int) bool { return v >= 0 && v < nw.n }

// message walks one queued or held message; decoding checks that both
// endpoints are nodes of this network.
func (nw *Network) message(c *congest.Codec, m *congest.Message) {
	c.Message(m)
	if c.Decoding() && (!nw.node(m.From) || !nw.node(m.To)) {
		c.Fail(fmt.Errorf("faults: snapshot message %d→%d outside n=%d", m.From, m.To, nw.n))
	}
}

// Walk walks the counters through a checkpoint codec (the Network's state
// and obs.Recorder's per-phase accounting both carry them).
func (s *PhysStats) Walk(c *congest.Codec) {
	for _, x := range []*int64{&s.DataSends, &s.Retransmits, &s.DupCopies, &s.DupDeliveries,
		&s.DataDrops, &s.AckDrops, &s.AckSends, &s.Delivered, &s.Dropped, &s.SubRounds} {
		c.Int64(x)
	}
	c.Int64s(&s.DelayHist)
}
