package faults

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/congest"
)

// queued is one message awaiting logical delivery.
type queued struct {
	m   congest.Message
	key uint64 // deterministic shuffle key (unreliable-mode reordering)
}

// flight is one physical transmission in the air during a round barrier.
type flight struct {
	ack      bool
	from, to int
	seq      int64 // data: sequence number; ack: cumulative acknowledgement
	msg      congest.Message
	key      uint64 // deterministic shuffle key (Plan.Reorder)
}

// Network implements congest.Network: a simulated physical network whose
// per-transmission faults are drawn from Plan, under the reliability shim
// that restores exact synchronous semantics (see the package comment).
// Configure the exported fields before the first engine run; the zero
// Plan is a perfect network.
//
// Like a congest.Observer, a Network serves one engine run at a time (a
// multi-phase algorithm's sequential runs are fine — physical statistics
// accumulate across them) and must not be shared by concurrent runs.
type Network struct {
	// Plan is the fault model.
	Plan Plan
	// Unreliable disables the reliability shim (test-only): faults hit
	// logical delivery directly — drops lose messages for good, delays
	// defer them by whole logical rounds, duplicates deliver twice. This
	// is the divergence injector behind internal/difftest.Shrink; no
	// synchronous protocol is expected to survive it.
	Unreliable bool
	// ArrivalOrder makes inboxes reflect physical acceptance order
	// instead of the canonical (sender, sequence) order (test-only): the
	// engine's former implicit "delivery order equals send order"
	// assumption, kept so tests can demonstrate it is wrong.
	ArrivalOrder bool
	// Script, when it holds a drop, delay or duplicate event, replaces the
	// probabilistic plan: exactly the listed events fire, each against the
	// first transmission attempt of its (Round, From, To) message. Crash
	// events leave the plan in force. Rounds are per engine run.
	Script []Event
	// Sink, if set, receives one PhysStats delta per logical round with
	// traffic.
	Sink Sink

	n       int
	links   map[uint64]*link
	ready   map[int][]queued // due logical round -> batch
	pending int

	phys     PhysStats
	recorded []Event

	// fired marks script crash events (by index) that have already
	// crashed the engine. It survives Reset and checkpoint restore alike:
	// crash-stop is a one-shot adversarial event, and a supervisor that
	// restores a pre-crash checkpoint must not crash again on replay.
	fired map[int]bool

	// Barrier scratch, reused across rounds.
	active    []*link
	flights   map[int64][]flight
	arrive    [][]congest.Message // per-destination acceptance-order log
	touched   []int               // destinations with acceptances this round
	flightCtr int64
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
// cumulative physical statistics and the recorded event log survive.
func (nw *Network) Reset(n int) {
	nw.n = n
	nw.links = make(map[uint64]*link)
	nw.ready = make(map[int][]queued)
	nw.pending = 0
	nw.flights = make(map[int64][]flight)
	nw.arrive = make([][]congest.Message, n)
	nw.touched = nw.touched[:0]
	nw.active = nw.active[:0]
	nw.flightCtr = 0
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
	var err error
	if nw.Unreliable {
		nw.sendRaw(r, batch, &delta)
	} else {
		err = nw.barrier(r, batch, &delta)
	}
	nw.phys.Add(delta)
	if nw.Sink != nil {
		nw.Sink.PhysRound(r, delta)
	}
	return err
}

// Collect implements congest.Network.
func (nw *Network) Collect(r int) []congest.Message {
	q := nw.ready[r]
	if len(q) == 0 {
		return nil
	}
	delete(nw.ready, r)
	nw.pending -= len(q)
	if nw.Unreliable {
		// Wire order within the round is adversarial when Reorder is set;
		// group by destination (stable) and restore per-sender order
		// unless ArrivalOrder deliberately exposes the wire order.
		if nw.Plan.Reorder && len(q) > 1 {
			sort.SliceStable(q, func(i, j int) bool { return q[i].key < q[j].key })
		}
		if nw.ArrivalOrder {
			sort.SliceStable(q, func(i, j int) bool { return q[i].m.To < q[j].m.To })
		} else {
			sort.SliceStable(q, func(i, j int) bool {
				a, b := q[i].m, q[j].m
				return a.To < b.To || (a.To == b.To && a.From < b.From)
			})
		}
	}
	out := make([]congest.Message, len(q))
	for i, x := range q {
		out[i] = x.m
	}
	return out
}

// NextDue implements congest.Network.
func (nw *Network) NextDue(after int) int {
	due := 0
	for r := range nw.ready {
		if r >= after && (due == 0 || r < due) {
			due = r
		}
	}
	return due
}

// Pending implements congest.Network.
func (nw *Network) Pending() int { return nw.pending }

// Phys returns the cumulative physical-delivery statistics across every
// engine run since the Network was created.
func (nw *Network) Phys() PhysStats {
	s := nw.phys
	s.DelayHist = append([]int64(nil), nw.phys.DelayHist...)
	return s
}

// Recorded returns the faults the probabilistic plan injected in
// unreliable mode, in injection order — a script that replays the run
// exactly (rounds are per engine run, so replay a single-run protocol).
func (nw *Network) Recorded() []Event {
	return append([]Event(nil), nw.recorded...)
}

func (nw *Network) record(e Event) { nw.recorded = append(nw.recorded, e) }

// scripted reports whether Script replaces the plan.
func (nw *Network) scripted() bool {
	return slices.ContainsFunc(nw.Script, func(e Event) bool { return e.Kind != CrashEvent })
}

// dataFate judges one data transmission attempt.
func (nw *Network) dataFate(r, from, to int, seq int64, attempt int) (drop bool, delay int, dup bool, dupDelay int) {
	if nw.scripted() {
		if attempt == 0 {
			f := scriptFateOf(nw.Script, r, from, to)
			return f.drop, f.delay, f.dup, f.dupDelay
		}
		return false, 0, false, 0
	}
	p := nw.Plan
	drop = p.Drop > 0 && u01(p.prf(kindDataDrop, r, from, to, seq, attempt)) < p.Drop
	if p.MaxDelay > 0 {
		delay = int(p.prf(kindDataDelay, r, from, to, seq, attempt) % uint64(p.MaxDelay+1))
	}
	dup = p.Dup > 0 && u01(p.prf(kindDataDup, r, from, to, seq, attempt)) < p.Dup
	if dup && p.MaxDelay > 0 {
		dupDelay = int(p.prf(kindDupDelay, r, from, to, seq, attempt) % uint64(p.MaxDelay+1))
	}
	return
}

func (nw *Network) ackFate(r int, l *link, attempt int) (drop bool, delay int) {
	if nw.scripted() {
		return false, 0
	}
	p := nw.Plan
	drop = p.Drop > 0 && u01(p.prf(kindAckDrop, r, l.from, l.to, l.delivered, attempt)) < p.Drop
	if p.MaxDelay > 0 {
		delay = int(p.prf(kindAckDelay, r, l.from, l.to, l.delivered, attempt) % uint64(p.MaxDelay+1))
	}
	return
}

// enqueue schedules a message for logical delivery in round due.
func (nw *Network) enqueue(due int, m congest.Message) {
	nw.flightCtr++
	key := nw.Plan.prf(kindShuffle, due, m.From, m.To, nw.flightCtr, 0)
	nw.ready[due] = append(nw.ready[due], queued{m: m, key: key})
	nw.pending++
}

// sendRaw is unreliable mode: the fault fate of each message applies to
// its logical delivery directly, and every plan-injected fault is
// recorded as a replayable Event.
func (nw *Network) sendRaw(r int, batch []congest.Message, delta *PhysStats) {
	record := !nw.scripted()
	for _, m := range batch {
		drop, delay, dup, dupDelay := nw.dataFate(r, m.From, m.To, 0, 0)
		delta.DataSends++
		if drop {
			delta.DataDrops++
			delta.Dropped++
			if record {
				nw.record(Event{Round: r, From: m.From, To: m.To, Kind: DropEvent})
			}
		} else {
			delta.delayed(delay)
			delta.Delivered++
			nw.enqueue(r+1+delay, m)
			if delay > 0 && record {
				nw.record(Event{Round: r, From: m.From, To: m.To, Kind: DelayEvent, Arg: delay})
			}
		}
		if dup {
			delta.DupCopies++
			delta.Delivered++
			nw.enqueue(r+1+dupDelay, m)
			if record {
				nw.record(Event{Round: r, From: m.From, To: m.To, Kind: DupEvent, Arg: dupDelay})
			}
		}
	}
}

// launch puts one physical transmission in the air, arriving at sub-round
// at.
func (nw *Network) launch(at int64, f flight) {
	nw.flightCtr++
	f.key = nw.Plan.prf(kindShuffle, int(at), f.from, f.to, nw.flightCtr, 0)
	nw.flights[at] = append(nw.flights[at], f)
}

// barrier runs the reliability shim for one logical round: physical
// sub-rounds of transmit → receive → acknowledge until every link's
// outstanding window is cumulatively acknowledged, then reassembles the
// (provably complete) batch for round r+1 in canonical order. The
// simulation is deterministic: links transmit in canonical batch order,
// arrivals are processed in launch order (or the plan's adversarial
// shuffle), and no map is iterated.
func (nw *Network) barrier(r int, batch []congest.Message, delta *PhysStats) error {
	active := nw.active[:0]
	for _, m := range batch {
		l := nw.linkFor(m.From, m.To)
		if len(l.out) != 0 {
			return fmt.Errorf("faults: link %d→%d entered round %d with an unacknowledged window", m.From, m.To, r)
		}
		l.nextSeq++
		l.out = append(l.out, pkt{seq: l.nextSeq, msg: m})
		l.resendAt = 0
		l.ackTries = 0
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
		// Transmit: every link whose timeout expired re-sends its window.
		for _, l := range active {
			if len(l.out) == 0 || t < l.resendAt {
				continue
			}
			for i := range l.out {
				p := &l.out[i]
				attempt := p.attempts
				p.attempts++
				if attempt == 0 {
					delta.DataSends++
				} else {
					delta.Retransmits++
				}
				drop, delay, dup, dupDelay := nw.dataFate(r, l.from, l.to, p.seq, attempt)
				if drop {
					delta.DataDrops++
				} else {
					delta.delayed(delay)
					nw.launch(t+1+int64(delay), flight{from: l.from, to: l.to, seq: p.seq, msg: p.msg})
				}
				if dup {
					delta.DupCopies++
					nw.launch(t+1+int64(dupDelay), flight{from: l.from, to: l.to, seq: p.seq, msg: p.msg})
				}
			}
			l.resendAt = t + rto
		}
		t++
		delta.SubRounds++
		// Receive: process this sub-round's arrivals.
		fl := nw.flights[t]
		delete(nw.flights, t)
		if nw.Plan.Reorder && len(fl) > 1 {
			sort.SliceStable(fl, func(i, j int) bool { return fl[i].key < fl[j].key })
		}
		recvd = recvd[:0]
		for _, f := range fl {
			l := nw.linkFor(f.from, f.to)
			if f.ack {
				if l.ack(f.seq) {
					outstanding--
				}
				continue
			}
			if l.accept(f.seq, f.msg) {
				if len(nw.arrive[f.to]) == 0 {
					nw.touched = append(nw.touched, f.to)
				}
				nw.arrive[f.to] = append(nw.arrive[f.to], f.msg)
			} else {
				delta.DupDeliveries++
			}
			if !l.ackPend {
				l.ackPend = true
				recvd = append(recvd, l)
			}
		}
		// Acknowledge: one cumulative ACK per link with data arrivals.
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
			nw.launch(t+1+int64(delay), flight{ack: true, from: l.from, to: l.to, seq: l.delivered})
		}
	}
	// The barrier is complete; transmissions still in the air (stale ACKs,
	// duplicate copies) are moot and discarded.
	for k := range nw.flights {
		delete(nw.flights, k)
	}

	// Reassemble round r+1's batch. Canonical order is reconstructed from
	// (destination, sender, sequence) — the delivery-order invariant —
	// unless ArrivalOrder deliberately exposes physical acceptance order.
	total := 0
	if nw.ArrivalOrder {
		sort.Ints(nw.touched)
		for _, v := range nw.touched {
			for _, m := range nw.arrive[v] {
				nw.enqueue(r+1, m)
			}
			total += len(nw.arrive[v])
			nw.arrive[v] = nil
		}
	} else {
		ls := make([]*link, len(active))
		copy(ls, active)
		sort.Slice(ls, func(i, j int) bool {
			a, b := ls[i], ls[j]
			return a.to < b.to || (a.to == b.to && a.from < b.from)
		})
		for _, l := range ls {
			for _, m := range l.got {
				nw.enqueue(r+1, m)
			}
			total += len(l.got)
		}
		for _, v := range nw.touched {
			nw.arrive[v] = nil
		}
	}
	nw.touched = nw.touched[:0]
	for _, l := range active {
		l.got = l.got[:0]
	}
	nw.active = active[:0]
	delta.Delivered += int64(total)
	if total != len(batch) {
		return fmt.Errorf("faults: round %d delivered %d of %d messages despite the shim", r, total, len(batch))
	}
	return nil
}

// linkKey is the links map key of the directed link from→to; ascending
// keys order links by (from, to).
func linkKey(from, to int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }
