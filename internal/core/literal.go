package core

import (
	"repro/internal/congest"
	"repro/internal/graph"
)

// EvictPolicy selects when the INSERT procedure's eviction rule (remove the
// closest non-SP entry above the inserted one; paper Observation II.3) is
// applied. The paper's text applies it to every insertion, but doing so is
// demonstrably incorrect on small instances this repository found: an
// insertion can evict a due-but-unsent non-SP entry that is the unique
// carrier of a downstream node's h-hop shortest path (see
// TestPaperModeCounterexampleEviction).
type EvictPolicy int

const (
	// EvictOnlySent applies the rule on every insertion but only evicts
	// entries that have already been sent (information already shared with
	// all neighbors, so discarding the local copy cannot lose paths).
	EvictOnlySent EvictPolicy = iota
	// EvictAllInserts applies the eviction rule on every insertion — the
	// literal reading of the paper's INSERT procedure.
	EvictAllInserts
	// EvictNonSPInserts applies the eviction rule only on Step 13 (non-SP)
	// insertions. Still incorrect: a non-SP insert can evict an unsent
	// carrier.
	EvictNonSPInserts
)

// Literal is one reading of the paper's list rules: the Step 13 ν-counting
// insertion gate and the INSERT eviction rule, in place of the Pareto
// discipline of List.Offer. Every reading loses h-hop distances on small
// instances (counterexample_test.go, experiment A-LIT); the rules are kept
// to reproduce and measure the paper's accounting, including exactly that
// failure, and are reachable through RunLiteral only.
type Literal struct {
	// Evict selects the INSERT eviction policy.
	Evict EvictPolicy
	// GateByUpdatedKey makes the Step 13 gate count the receiver's entries
	// below the *updated* key Z.κ (one literal reading of the paper's text)
	// instead of the *sender's* key Z⁻.κ; gating on the updated key
	// demonstrably drops essential entries (see
	// TestPaperModeCounterexampleGateKey).
	GateByUpdatedKey bool
}

// RunLiteral is Run with the receive rules of lit in place of List.Offer.
// Keys, send schedule, wire format, Result and checkpoint state are Run's;
// the distances are not to be trusted (see Literal). Unlike Run it does
// not prune entries heavier than Δ, and it audits Invariant 1 per insert
// under Opts.Audit.
func RunLiteral(g *graph.Graph, opts Opts, lit Literal) (*Result, error) {
	return run(g, opts, func(nd *node) congest.Node { return &literalNode{node: nd, lit: lit} })
}

// literalNode is node with the paper-literal receive loop; everything else
// (Init, the send, wake-ups, the state codec) is the embedded node's.
type literalNode struct {
	*node
	lit  Literal
	gate entry // scratch for the Step 13 gate key (never inserted)
}

func (nd *literalNode) Round(ctx *congest.Context, r int, inbox []congest.Message) {
	inPos := 0
	for _, m := range inbox {
		if i, d, l, ok := nd.extend(ctx, m, &inPos); ok {
			nd.offer(i, d, l, m.From, r, m.Payload.(*wire))
		}
	}
	nd.finish(ctx, r)
}

// offer is Steps 9–13 for the extended entry (d, l) of source index i,
// received from neighbor from as msg.
func (nd *literalNode) offer(i int, d, l int64, from, r int, msg *wire) {
	pl := &nd.pl
	z := pl.newEntry()
	z.d, z.l, z.srcIdx = d, l, i
	z.ceilK = nd.gamma.CeilKappa(d, l)
	b := &pl.bests[i]
	better := d < b.d ||
		(d == b.d && l < b.l) ||
		(d == b.d && l == b.l && from < b.parent)
	if better {
		// Step 9–11: z is the new shortest-path entry.
		z.needSend = true
		*b = best{d: d, l: l, parent: from, e: z}
		nd.insert(z, r)
		if nd.opts.Trace != nil {
			nd.opts.Trace("r%d v%d INSERT SP (d=%d l=%d src=%d) from %d", r, nd.id, d, l, msg.src, from)
		}
		return
	}
	// Step 13: non-SP entry; insert only if fewer than ν⁻ entries for
	// x lie below the gate key. Exact duplicates carry no information.
	for _, e := range pl.perSrc[i] {
		if e.equalKey(z) {
			pl.DupDrops++
			pl.recycle(z)
			return
		}
	}
	gate := z
	if !nd.lit.GateByUpdatedKey {
		// Count entries below the sender's key κ(Z⁻) instead of the
		// updated κ(Z); see Literal.GateByUpdatedKey.
		nd.gate = entry{d: msg.d, l: msg.l, srcIdx: i}
		gate = &nd.gate
	}
	if pl.countBefore(gate) < int(msg.nu) {
		z.needSend = true
		nd.insert(z, r)
		if nd.opts.Trace != nil {
			nd.opts.Trace("r%d v%d INSERT nonSP (d=%d l=%d src=%d) from %d nu=%d", r, nd.id, d, l, msg.src, from, msg.nu)
		}
	} else {
		pl.NuDrops++
		if nd.opts.Trace != nil {
			nd.opts.Trace("r%d v%d NUDROP (d=%d l=%d src=%d) from %d nu=%d below=%d", r, nd.id, d, l, msg.src, from, msg.nu, pl.countBefore(gate))
		}
		pl.recycle(z)
	}
}

// insert performs the paper's INSERT procedure: place z in sorted order,
// then (policy permitting) evict the closest non-SP entry for the same
// source above z.
func (nd *literalNode) insert(z *entry, r int) {
	pl := &nd.pl
	pl.insertAt(z, pl.searchPos(z))
	if nd.opts.Audit {
		// Invariant 1 (Lemma II.12): an entry added in round r satisfies
		// r < ⌈κ⌉ + pos. Messages processed in engine round r were sent in
		// round r−1, which is the paper's "added in round r−1".
		if int64(r-1) >= z.ceilK+int64(z.idx)+1 {
			nd.inv1++
		}
	}
	if nd.lit.Evict != EvictNonSPInserts || !pl.isSP(z) {
		// Eviction: closest non-SP entry for x strictly above z (policy
		// permitting; EvictOnlySent skips entries not yet broadcast).
		var victim *entry
		for _, e := range pl.perSrc[z.srcIdx] {
			if e == z || pl.isSP(e) || e.idx <= z.idx {
				continue
			}
			if nd.lit.Evict == EvictOnlySent && e.needSend {
				continue
			}
			if victim == nil || e.idx < victim.idx {
				victim = e
			}
		}
		if victim != nil {
			if nd.opts.Trace != nil {
				nd.opts.Trace("v%d EVICT (d=%d l=%d src=%d) sent=%v", nd.id, victim.d, victim.l, nd.opts.Sources[victim.srcIdx], !victim.needSend)
			}
			pl.removeEntry(victim)
		}
	}
	pl.schedule(z)
}
