package congest

// Network replaces the engine's built-in perfect delivery with a pluggable
// delivery substrate. The built-in path (Config.Network == nil) delivers
// every message sent in round r into its destination's round-r+1 inbox,
// exactly once, in canonical order; a Network may instead simulate an
// imperfect physical network underneath the round abstraction —
// internal/faults implements a seeded adversarial one (bounded delay,
// drops, duplication) together with the reliability shim (per-link
// stop-and-wait with sequence numbers, ACK + retransmit, round barrier)
// that restores exact synchronous semantics over it.
//
// # The delivery-order invariant
//
// The engine's Node contract promises inboxes sorted by sender. With the
// built-in path that falls out of routing order, which silently equates
// delivery order with send order — an assumption no real network honors.
// A Network makes the invariant explicit: the order of Collect's batch
// must be reconstructed from per-link sequence numbers ((To, From)
// ascending, each link's messages in send order), never from physical
// arrival order. The root package's TestDeliveryOrderInvariant hands one
// inbox over in acceptance order to show that a late arrival then flips
// a tie-broken parent pointer.
//
// A Network is driven by one engine run at a time; like an Observer, it
// must not be shared by concurrent runs.
type Network interface {
	// Reset is called once at the start of each engine run with the node
	// count. Implementations discard per-run delivery state (sequence
	// numbers, undelivered traffic) but may retain cumulative physical
	// statistics across the runs of a multi-phase algorithm.
	Reset(n int)
	// Send hands over round r's validated outgoing batch in canonical
	// order (ascending sender; in CONGEST each link direction carries at
	// most one message per round). The slice is reused by the engine;
	// implementations must copy what they keep. A returned error aborts
	// the run (e.g. a reliability barrier that cannot complete).
	Send(r int, batch []Message) error
	// Collect returns the messages to deliver into round-r inboxes,
	// sorted by (To, From) with each link's messages in send order — the
	// delivery-order invariant above. The engine calls it once per
	// executed round in increasing round order; rounds skipped by the
	// active scheduler's fast-forward are guaranteed (via NextDue) to
	// have no deliveries due.
	Collect(r int) []Message
	// NextDue returns the smallest round ≥ after with deliveries pending,
	// or 0 when none is: the active scheduler's fast-forward bound.
	NextDue(after int) int
	// Pending counts accepted-but-undelivered messages. The engine
	// terminates only when every node is quiescent and Pending is 0.
	Pending() int
}
