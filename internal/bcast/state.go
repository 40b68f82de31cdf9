// Checkpoint support: congest.Stateful for the five tree-primitive node
// kinds. Tree topology, root and the root's source list are configuration
// (rebuilt by the phase driver); only the per-run dynamic state
// round-trips.
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

// State implements congest.Stateful.
func (c *claimNode) State(cd *congest.Codec) error {
	cd.Ints(&c.children)
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

// State implements congest.Stateful.
func (p *pipeNode) State(c *congest.Codec) error {
	c.Int(&p.sentI)
	walkVecs(c, &p.queue)
	walkVecs(c, &p.got)
	return nil
}

// State implements congest.Stateful.
func (gn *gatherNode) State(c *congest.Codec) error {
	walkVecs(c, &gn.queue)
	walkVecs(c, &gn.got)
	return nil
}
