package faults

import (
	"repro/internal/congest"
)

// link is one direction of a communication link under the reliability
// shim, which runs stop-and-wait: the engine sends at most one message per
// link per round, and the barrier empties the air before the next round
// starts, so a link carries one packet per round. Both endpoints' state
// lives here because the simulation is global; the protocol it implements
// is strictly local: the sender retransmits its packet on a timeout until
// an ACK lands, the receiver keeps the first copy, discards the rest and
// acknowledges every sub-round with arrivals.
type link struct {
	from, to int
	// seq numbers the link's packets; the round's packet carries it. It
	// keys the PRF of every data and ACK draw.
	seq int64

	// Sender state.
	msg      congest.Message // the round's packet
	unacked  bool            // msg awaits its ACK
	attempts int             // data transmissions this round (attempt PRF key)
	resendAt int64           // sub-round at which msg is retransmitted
	ackTries int             // ACK transmissions this round (attempt PRF key)

	// Receiver state.
	got     bool // msg has landed
	ackPend bool // data landed this sub-round; owe an ACK
}

// PhysStats counts physical-delivery work: what the adversary did to the
// wire and what the reliability shim spent undoing it. Logical
// congest.Stats are invariant under any fault plan; these are not — they
// are the cost of the synchrony the shim restores.
type PhysStats struct {
	// DataSends counts first transmissions of data packets; Retransmits
	// counts re-sends after an unacknowledged timeout.
	DataSends   int64 `json:"dataSends"`
	Retransmits int64 `json:"retransmits"`
	// DupCopies counts adversary-injected duplicate transmissions;
	// DupDeliveries counts arrivals the receiver discarded as already
	// seen (duplicates and retransmit overlap alike).
	DupCopies     int64 `json:"dupCopies"`
	DupDeliveries int64 `json:"dupDeliveries"`
	// DataDrops / AckDrops count transmissions the adversary destroyed.
	DataDrops int64 `json:"dataDrops"`
	AckDrops  int64 `json:"ackDrops"`
	// AckSends counts ACK transmissions.
	AckSends int64 `json:"ackSends"`
	// Delivered counts messages handed to logical inboxes.
	Delivered int64 `json:"delivered"`
	// SubRounds counts simulated physical sub-rounds; the per-logical-
	// round ratio is the synchronizer's latency overhead.
	SubRounds int64 `json:"subRounds"`
	// DelayHist[d] counts transmission attempts assigned d extra
	// sub-rounds of latency.
	DelayHist []int64 `json:"delayHist,omitempty"`
}

// Add accumulates d into s (histograms grow to fit).
func (s *PhysStats) Add(d PhysStats) {
	s.DataSends += d.DataSends
	s.Retransmits += d.Retransmits
	s.DupCopies += d.DupCopies
	s.DupDeliveries += d.DupDeliveries
	s.DataDrops += d.DataDrops
	s.AckDrops += d.AckDrops
	s.AckSends += d.AckSends
	s.Delivered += d.Delivered
	s.SubRounds += d.SubRounds
	for i, c := range d.DelayHist {
		for len(s.DelayHist) <= i {
			s.DelayHist = append(s.DelayHist, 0)
		}
		s.DelayHist[i] += c
	}
}

// delayed records one attempt's injected delay in the histogram.
func (s *PhysStats) delayed(d int) {
	for len(s.DelayHist) <= d {
		s.DelayHist = append(s.DelayHist, 0)
	}
	s.DelayHist[d]++
}

// Sink receives one PhysStats delta per logical round with traffic.
// internal/obs.Recorder implements it, attributing physical-delivery cost
// to algorithm phases alongside the logical event stream.
type Sink interface {
	PhysRound(round int, delta PhysStats)
}
