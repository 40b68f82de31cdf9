// Checkpoint support: congest.Stateful for the five tree-primitive node
// kinds. Tree topology, root, the root's source list and the broadcast's
// fold are configuration (rebuilt by the phase driver); only the per-run
// dynamic state round-trips.
package bcast

import "repro/internal/congest"

func init() {
	congest.RegisterPayloadCodec("bcast.Vec", walkVec)
}

func walkVec(c *congest.Codec, v *Vec) { c.Int64s((*[]int64)(v)) }

func walkVecs(c *congest.Codec, vs *[]Vec) {
	for i := range congest.Slice(c, vs) {
		walkVec(c, &(*vs)[i])
	}
}

// State implements congest.Stateful.
func (t *treeNode) State(c *congest.Codec) error {
	c.Int(&t.dist)
	c.Int(&t.parent)
	c.Bool(&t.fresh)
	return nil
}

// State implements congest.Stateful. Children are not stored: claims are
// sent in round 1 and received in round 2, the run's last, so the list is
// empty at every barrier.
func (c *claimNode) State(cd *congest.Codec) error {
	cd.Bool(&c.sent)
	return nil
}

// State implements congest.Stateful.
func (a *aggNode) State(c *congest.Codec) error {
	c.Int64(&a.val)
	c.Int64(&a.arg)
	c.Int(&a.pending)
	c.Bool(&a.sent)
	return nil
}

// walkQueue walks a relay queue's pending values, items[head:], as the
// []Vec the relay nodes have always checkpointed; decoding re-boxes each
// value once and rewinds the head.
func walkQueue(c *congest.Codec, q *relayQueue) {
	var vs []Vec
	if !c.Decoding() {
		vs = make([]Vec, q.len())
		for i, p := range q.items[q.head:] {
			vs[i] = p.(Vec)
		}
	}
	walkVecs(c, &vs)
	if c.Decoding() {
		q.items, q.head = boxed(vs), 0
	}
}

// State implements congest.Stateful.
func (p *pipeNode) State(c *congest.Codec) error {
	c.Int(&p.sentI)
	walkQueue(c, &p.queue)
	c.Int64s(&p.row)
	return nil
}

// State implements congest.Stateful.
func (gn *gatherNode) State(c *congest.Codec) error {
	walkQueue(c, &gn.queue)
	walkVecs(c, &gn.got)
	return nil
}
