package faults

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/congest"
)

// flight is one physical transmission in the air during a round barrier:
// the round's packet on link l, or its ACK.
type flight struct {
	l   *link
	ack bool
}

// Network implements congest.Network: a simulated physical network whose
// per-transmission faults are drawn from Plan (or taken from Script),
// under the reliability shim that restores exact synchronous semantics
// (see the package comment): each round's batch is delivered whole, in
// canonical order, in the next round. Configure the exported fields
// before the first engine run; the zero Plan is a perfect network.
//
// Like a congest.Observer, a Network serves one engine run at a time (a
// multi-phase algorithm's sequential runs are fine — physical statistics
// accumulate across them) and must not be shared by concurrent runs.
type Network struct {
	// Plan is the fault model.
	Plan Plan
	// Script, when it holds a drop, delay or duplicate event, replaces the
	// probabilistic plan: exactly the listed events fire, each against the
	// first transmission attempt of its (Round, From, To) message. Crash
	// events leave the plan in force. Rounds are per engine run.
	Script []Event
	// Sink, if set, receives one PhysStats delta per logical round with
	// traffic.
	Sink Sink

	n     int
	links map[uint64]*link
	// staged is the batch the last barrier reassembled, due in round due.
	due    int
	staged []congest.Message

	phys PhysStats

	// fired marks script crash events (by index) that have already
	// crashed the engine. It survives Reset and checkpoint restore alike:
	// crash-stop is a one-shot adversarial event, and a supervisor that
	// restores a pre-crash checkpoint must not crash again on replay.
	fired map[int]bool

	// Barrier scratch, reused across rounds.
	active  []*link
	flights map[int64][]flight
}

// CrashDue implements congest.Crasher: it reports a scripted crash-stop
// event due at round r (lowest node first when several are scheduled) and
// disarms it.
func (nw *Network) CrashDue(r int) (node, restart int, ok bool) {
	best := -1
	for i, e := range nw.Script {
		if e.Kind != CrashEvent || e.Round != r || nw.fired[i] {
			continue
		}
		if best < 0 || e.From < nw.Script[best].From {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	if nw.fired == nil {
		nw.fired = make(map[int]bool)
	}
	nw.fired[best] = true
	e := nw.Script[best]
	if e.Arg > 0 {
		restart = e.Round + e.Arg
	}
	return e.From, restart, true
}

// NextCrash implements congest.Crasher: the earliest round ≥ after with an
// armed crash event (0 = none).
func (nw *Network) NextCrash(after int) int {
	due := 0
	for i, e := range nw.Script {
		if e.Kind != CrashEvent || e.Round < after || nw.fired[i] {
			continue
		}
		if due == 0 || e.Round < due {
			due = e.Round
		}
	}
	return due
}

// DisarmedCrashes returns the script indices of crash events that have
// fired, for persisting the disarm bookkeeping across processes
// (internal/checkpoint stores them in the file header; snapshots
// deliberately do not carry them — see fired).
func (nw *Network) DisarmedCrashes() []int {
	idx := make([]int, 0, len(nw.fired))
	for i := range nw.fired {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// DisarmCrashes marks the given script indices as fired (the restore-side
// counterpart of DisarmedCrashes).
func (nw *Network) DisarmCrashes(idx []int) {
	if len(idx) == 0 {
		return
	}
	if nw.fired == nil {
		nw.fired = make(map[int]bool)
	}
	for _, i := range idx {
		nw.fired[i] = true
	}
}

// New returns a Network for the plan. The caller should have validated
// the plan (Parse does); an unsatisfiable plan (Drop ≥ 1) surfaces as a
// barrier error on the first round with traffic.
func New(plan Plan) *Network { return &Network{Plan: plan} }

// Open is the rule behind every -faults / -fault-seed flag pair: parse the
// plan text, key its PRF with seed when the text carries no seed term,
// and build the Network. "" and "none" return nil — perfect delivery with
// no shim at all, which is not the same run as the zero plan under the
// shim (New(Plan{})).
func Open(text string, seed int64) (*Network, error) {
	if text == "" || text == "none" {
		return nil, nil
	}
	plan, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if plan.Seed == 0 {
		plan.Seed = seed
	}
	return New(plan), nil
}

// PlanString is the canonical plan text checkpoint metadata records:
// Plan.String(), or "" for a nil Network.
func (nw *Network) PlanString() string {
	if nw == nil {
		return ""
	}
	return nw.Plan.String()
}

// Reset implements congest.Network: per-run delivery state is discarded,
// cumulative physical statistics survive.
func (nw *Network) Reset(n int) {
	nw.n = n
	nw.links = make(map[uint64]*link)
	nw.due, nw.staged = 0, nil
	nw.flights = make(map[int64][]flight)
	nw.active = nw.active[:0]
}

func (nw *Network) linkFor(from, to int) *link {
	k := linkKey(from, to)
	l := nw.links[k]
	if l == nil {
		l = &link{from: from, to: to}
		nw.links[k] = l
	}
	return l
}

// Send implements congest.Network.
func (nw *Network) Send(r int, batch []congest.Message) error {
	if len(batch) == 0 {
		return nil
	}
	var delta PhysStats
	err := nw.barrier(r, batch, &delta)
	nw.phys.Add(delta)
	if nw.Sink != nil {
		nw.Sink.PhysRound(r, delta)
	}
	return err
}

// Collect implements congest.Network.
func (nw *Network) Collect(r int) []congest.Message {
	if r != nw.due {
		return nil
	}
	out := nw.staged
	nw.due, nw.staged = 0, nil
	return out
}

// NextDue implements congest.Network.
func (nw *Network) NextDue(after int) int {
	if len(nw.staged) == 0 || nw.due < after {
		return 0
	}
	return nw.due
}

// Pending implements congest.Network.
func (nw *Network) Pending() int { return len(nw.staged) }

// Phys returns the cumulative physical-delivery statistics across every
// engine run since the Network was created.
func (nw *Network) Phys() PhysStats {
	s := nw.phys
	s.DelayHist = append([]int64(nil), nw.phys.DelayHist...)
	return s
}

// Fate is the fault assignment of one data transmission attempt: whether
// the adversary destroys it, its extra latency, and whether it injects
// one extra copy with a latency of its own. The zero Fate is a clean
// transmission.
type Fate struct {
	Drop     bool
	Delay    int
	Dup      bool
	DupDelay int
}

// DataFate judges one attempt at the data transmission of sequence
// number seq on from→to in round r: by script when it holds a drop, delay
// or duplicate event (an event hits attempt 0 only), else by p's PRF.
// The reliability shim and internal/difftest's raw-delivery injector both
// draw their fates here.
func DataFate(p Plan, script []Event, r, from, to int, seq int64, attempt int) Fate {
	if scripted(script) {
		if attempt == 0 {
			return scriptFateOf(script, r, from, to)
		}
		return Fate{}
	}
	var f Fate
	f.Drop = p.Drop > 0 && u01(p.prf(kindDataDrop, r, from, to, seq, attempt)) < p.Drop
	if p.MaxDelay > 0 {
		f.Delay = int(p.prf(kindDataDelay, r, from, to, seq, attempt) % uint64(p.MaxDelay+1))
	}
	f.Dup = p.Dup > 0 && u01(p.prf(kindDataDup, r, from, to, seq, attempt)) < p.Dup
	if f.Dup && p.MaxDelay > 0 {
		f.DupDelay = int(p.prf(kindDupDelay, r, from, to, seq, attempt) % uint64(p.MaxDelay+1))
	}
	return f
}

// scripted reports whether script replaces the plan.
func scripted(script []Event) bool {
	return slices.ContainsFunc(script, func(e Event) bool { return e.Kind != CrashEvent })
}

func (nw *Network) ackFate(r int, l *link, attempt int) (drop bool, delay int) {
	if scripted(nw.Script) {
		return false, 0
	}
	p := nw.Plan
	drop = p.Drop > 0 && u01(p.prf(kindAckDrop, r, l.from, l.to, l.seq, attempt)) < p.Drop
	if p.MaxDelay > 0 {
		delay = int(p.prf(kindAckDelay, r, l.from, l.to, l.seq, attempt) % uint64(p.MaxDelay+1))
	}
	return
}

// launch puts one physical transmission in the air, arriving at sub-round
// at.
func (nw *Network) launch(at int64, f flight) {
	nw.flights[at] = append(nw.flights[at], f)
}

// barrier runs the reliability shim for one logical round: physical
// sub-rounds of transmit → receive → acknowledge until every link's
// packet is acknowledged, then reassembles the (provably complete) batch
// for round r+1 in canonical order. The simulation is deterministic:
// links transmit in batch order, arrivals are processed in launch order,
// and no map is iterated.
func (nw *Network) barrier(r int, batch []congest.Message, delta *PhysStats) error {
	active := nw.active[:0]
	for _, m := range batch {
		l := nw.linkFor(m.From, m.To)
		if l.unacked {
			return fmt.Errorf("faults: link %d→%d entered round %d with an unacknowledged window", m.From, m.To, r)
		}
		l.seq++
		l.msg, l.unacked = m, true
		l.attempts, l.resendAt, l.ackTries = 0, 0, 0
		active = append(active, l)
	}
	nw.active = active
	outstanding := len(active)
	// The retransmit timeout covers a full round trip at maximum delay;
	// the sub-round cap turns an unsatisfiable plan (or a shim bug) into
	// an engine error instead of a hang.
	rto := int64(2*nw.Plan.MaxDelay + 3)
	maxSub := int64(1000 * (nw.Plan.MaxDelay + 2))
	var recvd []*link
	var t int64
	for outstanding > 0 {
		if t >= maxSub {
			return fmt.Errorf("faults: round %d barrier incomplete after %d physical sub-rounds (plan %q)", r, t, nw.Plan.String())
		}
		// Transmit: every link whose timeout expired re-sends its packet.
		for _, l := range active {
			if !l.unacked || t < l.resendAt {
				continue
			}
			attempt := l.attempts
			l.attempts++
			if attempt == 0 {
				delta.DataSends++
			} else {
				delta.Retransmits++
			}
			f := DataFate(nw.Plan, nw.Script, r, l.from, l.to, l.seq, attempt)
			if f.Drop {
				delta.DataDrops++
			} else {
				delta.delayed(f.Delay)
				nw.launch(t+1+int64(f.Delay), flight{l: l})
			}
			if f.Dup {
				delta.DupCopies++
				nw.launch(t+1+int64(f.DupDelay), flight{l: l})
			}
			l.resendAt = t + rto
		}
		t++
		delta.SubRounds++
		// Receive: process this sub-round's arrivals. Every flight in the
		// air belongs to this round, so an ACK acknowledges the link's
		// packet and a data copy is that packet.
		fl := nw.flights[t]
		delete(nw.flights, t)
		recvd = recvd[:0]
		for _, f := range fl {
			l := f.l
			if f.ack {
				if l.unacked {
					l.unacked = false
					outstanding--
				}
				continue
			}
			if l.got {
				delta.DupDeliveries++
			}
			l.got = true
			if !l.ackPend {
				l.ackPend = true
				recvd = append(recvd, l)
			}
		}
		// Acknowledge: one ACK per link with data arrivals.
		for _, l := range recvd {
			l.ackPend = false
			attempt := l.ackTries
			l.ackTries++
			delta.AckSends++
			drop, delay := nw.ackFate(r, l, attempt)
			if drop {
				delta.AckDrops++
				continue
			}
			nw.launch(t+1+int64(delay), flight{l: l, ack: true})
		}
	}
	// The barrier is complete; transmissions still in the air (stale ACKs,
	// duplicate copies) are moot and discarded.
	for k := range nw.flights {
		delete(nw.flights, k)
	}

	// Reassemble round r+1's batch in canonical (destination, sender)
	// order: the delivery-order invariant.
	slices.SortFunc(active, func(a, b *link) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.from, b.from)
	})
	staged := make([]congest.Message, 0, len(batch))
	for _, l := range active {
		if l.got {
			staged = append(staged, l.msg)
			l.got = false
		}
	}
	nw.active = active[:0]
	delta.Delivered += int64(len(staged))
	if len(staged) != len(batch) {
		return fmt.Errorf("faults: round %d delivered %d of %d messages despite the shim", r, len(staged), len(batch))
	}
	nw.due, nw.staged = r+1, staged
	return nil
}

// linkKey is the links map key of the directed link from→to; ascending
// keys order links by (from, to).
func linkKey(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }
