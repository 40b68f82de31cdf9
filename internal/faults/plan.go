// Package faults is the adversarial-delivery layer for the CONGEST engine
// (internal/congest): a seeded, fully deterministic fault injector for the
// physical network underneath the round abstraction, plus the reliability
// shim — per-link sequence numbers, cumulative ACKs, timeout retransmit
// and a per-round delivery barrier — that restores exact synchronous
// semantics over it.
//
// The paper's bounds (Theorems I.1–I.5) are statements about a perfectly
// synchronous CONGEST network. Rather than hardening every protocol
// individually, this package hardens the substrate: each logical round's
// message batch is carried by simulated physical sub-rounds in which the
// adversary may delay (bounded), drop, duplicate and reorder individual
// transmissions, and the shim retransmits until every sequence number is
// cumulatively acknowledged. Because the barrier completes before the next
// logical round starts and inboxes are reassembled in canonical
// (sender, sequence) order, every unmodified protocol computes bit-identical
// distances, parents and logical Stats under any fault plan — the root
// package's TestDeliveryConformance verifies exactly that, on both the
// dense and active-set schedulers.
//
// Fault decisions are drawn from a Plan: a keyed PRF of
// (seed, kind, round, src, dst, sequence, attempt), so a run is a pure
// function of (graph, protocol, plan) — independent of host scheduling,
// worker count and map iteration order. The same keying makes every
// counterexample replayable and shrinkable (internal/difftest.Shrink).
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/key"
)

// Plan is a deterministic fault model for the physical network. The zero
// value is the perfect network (the shim still runs, but every
// transmission succeeds immediately).
type Plan struct {
	// Seed keys the fault PRF. Two runs with the same plan see the same
	// faults; 0 is a valid seed.
	Seed int64
	// MaxDelay bounds the extra latency of a transmission attempt: each
	// copy is assigned a delay drawn uniformly from 0..MaxDelay physical
	// sub-rounds (logical rounds in unreliable mode).
	MaxDelay int
	// Drop is the per-attempt probability that a transmission vanishes.
	// Must be < 1 or the reliability barrier cannot complete.
	Drop float64
	// Dup is the per-attempt probability that a transmission is
	// duplicated; the extra copy gets an independent delay.
	Dup float64
	// Reorder scrambles the processing order of same-sub-round arrivals
	// (deterministically). With MaxDelay > 0 arrival order is already
	// scrambled across sub-rounds; Reorder makes it adversarial even at
	// delay 0.
	Reorder bool
}

// MaxMaxDelay bounds Plan.MaxDelay (a delay is "bounded" in the model's
// sense; anything larger is a drop in disguise).
const MaxMaxDelay = 64

// Validate reports whether the plan's parameters are in range.
func (p Plan) Validate() error {
	if p.MaxDelay < 0 || p.MaxDelay > MaxMaxDelay {
		return fmt.Errorf("faults: MaxDelay %d out of range [0, %d]", p.MaxDelay, MaxMaxDelay)
	}
	if math.IsNaN(p.Drop) || p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("faults: Drop %v out of range [0, 1)", p.Drop)
	}
	if math.IsNaN(p.Dup) || p.Dup < 0 || p.Dup > 1 {
		return fmt.Errorf("faults: Dup %v out of range [0, 1]", p.Dup)
	}
	return nil
}

// All is the standard chaos plan used by the conformance sweep and the
// -faults=all CLI shorthand: bounded delay ≤ 4, 20% drops, 10%
// duplication, adversarial reordering.
func All(seed int64) Plan {
	return Plan{Seed: seed, MaxDelay: 4, Drop: 0.2, Dup: 0.1, Reorder: true}
}

// Parse decodes a plan from its textual form: comma-separated terms
// "delay=N", "drop=P", "dup=P", "reorder" and "seed=N", in any order,
// each at most once (a repeated key is an error, not last-wins).
// The presets "" and "none" give the zero plan and "all" gives All(0).
// Parse(p.String()) == p for every valid plan (FuzzFaultPlan).
func Parse(s string) (Plan, error) {
	var p Plan
	switch strings.TrimSpace(s) {
	case "", "none":
		return p, nil
	case "all":
		return All(0), nil
	}
	err := key.Scan("faults", "plan term", s, ",", key.Vocab{
		"delay":   {Set: key.Into(&p.MaxDelay, strconv.Atoi)},
		"drop":    {Set: key.Into(&p.Drop, key.Float)},
		"dup":     {Set: key.Into(&p.Dup, key.Float)},
		"reorder": {Bare: true, Set: func(string) error { p.Reorder = true; return nil }},
		"seed":    {Set: key.Into(&p.Seed, key.Int64)},
	})
	if err != nil {
		return Plan{}, err
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in the canonical form Parse accepts: active
// terms in delay, drop, dup, reorder, seed order; "none" for the zero
// plan.
func (p Plan) String() string {
	var terms []string
	if p.MaxDelay != 0 {
		terms = append(terms, fmt.Sprintf("delay=%d", p.MaxDelay))
	}
	if p.Drop != 0 {
		terms = append(terms, "drop="+key.Prob(p.Drop))
	}
	if p.Dup != 0 {
		terms = append(terms, "dup="+key.Prob(p.Dup))
	}
	if p.Reorder {
		terms = append(terms, "reorder")
	}
	if p.Seed != 0 {
		terms = append(terms, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(terms) == 0 {
		return "none"
	}
	return strings.Join(terms, ",")
}

// PRF domains. Every random decision in the package is keyed by one of
// these so decisions are independent of each other and of evaluation
// order.
const (
	kindDataDrop uint64 = iota + 1
	kindDataDelay
	kindDataDup
	kindDupDelay
	kindAckDrop
	kindAckDelay
	kindShuffle
)

// prf draws the decision word for one (kind, round, link, seq, attempt)
// key under the plan's seed. The seeding and mixing discipline is the
// shared one in internal/key; the derived stream is bit-identical to the
// pre-dedup local copy, so committed fixtures replay unchanged.
func (p Plan) prf(kind uint64, round, from, to int, seq int64, attempt int) uint64 {
	h := key.PRF(p.Seed, kind)
	h = key.Mix64(h ^ uint64(uint32(round)) ^ uint64(uint32(attempt))<<32)
	h = key.Mix64(h ^ uint64(uint32(from)) ^ uint64(uint32(to))<<32)
	h = key.Mix64(h ^ uint64(seq))
	return h
}

// u01 maps a PRF word to [0, 1).
func u01(h uint64) float64 { return key.U01(h) }
