package difftest

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/congest"
	"repro/internal/faults"
)

// Unreliable is a congest.Network without the reliability shim: each
// message's fault fate (faults.DataFate, the draws the shim makes for a
// first transmission) hits its logical delivery directly. A drop loses the
// message for good, a delay defers it by whole logical rounds, a duplicate
// delivers it twice. No synchronous protocol is expected to survive it:
// it is the divergence injector behind Shrink, and the conformance table
// kills and resumes it to check that a snapshot carries queued traffic.
//
// Each round's batch is delivered in (To, From, send order). Like every
// Network it serves one engine run at a time.
type Unreliable struct {
	// Plan draws the faults unless Script replaces it.
	Plan faults.Plan
	// Script, when it holds a drop, delay or duplicate event, replaces
	// Plan: exactly the listed events fire. Rounds are per engine run.
	Script []faults.Event

	n        int
	ready    map[int][]congest.Message // due round → batch, in send order
	recorded []faults.Event
}

// Reset implements congest.Network: queued traffic is discarded, the
// recorded faults survive.
func (nw *Unreliable) Reset(n int) {
	nw.n = n
	nw.ready = make(map[int][]congest.Message)
}

// Send implements congest.Network. Every fault Plan injects is recorded.
func (nw *Unreliable) Send(r int, batch []congest.Message) error {
	planned := !slices.ContainsFunc(nw.Script, func(e faults.Event) bool { return e.Kind != faults.CrashEvent })
	for _, m := range batch {
		record := func(k faults.Kind, arg int) {
			if planned {
				nw.recorded = append(nw.recorded, faults.Event{Round: r, From: m.From, To: m.To, Kind: k, Arg: arg})
			}
		}
		f := faults.DataFate(nw.Plan, nw.Script, r, m.From, m.To, 0, 0)
		if f.Drop {
			record(faults.DropEvent, 0)
		} else {
			nw.ready[r+1+f.Delay] = append(nw.ready[r+1+f.Delay], m)
			if f.Delay > 0 {
				record(faults.DelayEvent, f.Delay)
			}
		}
		if f.Dup {
			nw.ready[r+1+f.DupDelay] = append(nw.ready[r+1+f.DupDelay], m)
			record(faults.DupEvent, f.DupDelay)
		}
	}
	return nil
}

// Collect implements congest.Network.
func (nw *Unreliable) Collect(r int) []congest.Message {
	q := nw.ready[r]
	delete(nw.ready, r)
	sort.SliceStable(q, func(i, j int) bool {
		a, b := q[i], q[j]
		return a.To < b.To || (a.To == b.To && a.From < b.From)
	})
	return q
}

// NextDue implements congest.Network.
func (nw *Unreliable) NextDue(after int) int {
	due := 0
	for r := range nw.ready {
		if r >= after && (due == 0 || r < due) {
			due = r
		}
	}
	return due
}

// Pending implements congest.Network.
func (nw *Unreliable) Pending() (n int) {
	for _, q := range nw.ready {
		n += len(q)
	}
	return n
}

// Recorded returns the faults Plan injected, in injection order: a script
// that replays the run exactly (rounds are per engine run, so replay a
// single-run protocol).
func (nw *Unreliable) Recorded() []faults.Event {
	return append([]faults.Event(nil), nw.recorded...)
}

// State implements congest.Stateful: the queued deliveries and the
// recorded faults. The node count is written as -1-n: faults.Network's
// State reads a non-negative count first, so neither network resumes the
// other's snapshot.
func (nw *Unreliable) State(c *congest.Codec) error {
	tag := -1 - nw.n
	c.Int(&tag)
	if c.Decoding() && c.Err() == nil && tag != -1-nw.n {
		if tag >= 0 {
			return fmt.Errorf("difftest: snapshot is the reliability shim's, not an unreliable network's")
		}
		return fmt.Errorf("difftest: snapshot is for n=%d, network has n=%d", -1-tag, nw.n)
	}
	congest.Map(c, &nw.ready, func(r *int, q *[]congest.Message) {
		c.Int(r)
		for i := range congest.Slice(c, q) {
			c.Message(&(*q)[i])
		}
	})
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
