package faults

import (
	"repro/internal/congest"
)

// pkt is one sequence-numbered data packet awaiting acknowledgement.
type pkt struct {
	seq      int64
	msg      congest.Message
	attempts int // transmissions so far (attempt index keys the PRF)
}

// link is one direction of a communication link under the reliability
// shim. Both endpoints' state lives here because the simulation is
// global; the protocol it implements is strictly local: the sender
// retransmits its unacknowledged window on a timeout, the receiver
// deduplicates by sequence number, delivers in sequence order and returns
// cumulative ACKs.
type link struct {
	from, to int

	// Sender state.
	nextSeq  int64 // last assigned sequence number
	out      []pkt // outstanding unACKed packets, sequence ascending
	ackedTo  int64 // cumulative acknowledgement received
	resendAt int64 // sub-round at which the window retransmits
	ackTries int   // ACK transmissions this round (attempt PRF key)

	// Receiver state.
	delivered int64                     // in-order delivery frontier
	hold      map[int64]congest.Message // out-of-order holdback buffer
	got       []congest.Message         // this round's deliveries, sequence order
	ackPend   bool                      // data landed this sub-round; owe an ACK
}

// accept processes one received data packet; it reports whether the
// packet was new (false = duplicate, already delivered or held).
func (l *link) accept(seq int64, msg congest.Message) bool {
	if seq <= l.delivered {
		return false
	}
	if _, dup := l.hold[seq]; dup {
		return false
	}
	if l.hold == nil {
		l.hold = make(map[int64]congest.Message)
	}
	l.hold[seq] = msg
	for {
		m, ok := l.hold[l.delivered+1]
		if !ok {
			break
		}
		delete(l.hold, l.delivered+1)
		l.delivered++
		l.got = append(l.got, m)
	}
	return true
}

// ack processes one received cumulative acknowledgement and reports
// whether it emptied the outstanding window.
func (l *link) ack(cum int64) bool {
	if cum <= l.ackedTo {
		return false
	}
	l.ackedTo = cum
	had := len(l.out) > 0
	for len(l.out) > 0 && l.out[0].seq <= cum {
		l.out = l.out[1:]
	}
	return had && len(l.out) == 0
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
	// AckSends counts cumulative-ACK transmissions.
	AckSends int64 `json:"ackSends"`
	// Delivered counts messages handed to logical inboxes; Dropped counts
	// messages destroyed for good, which the shim's retransmits rule
	// out: it stays 0.
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
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
	s.Dropped += d.Dropped
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
