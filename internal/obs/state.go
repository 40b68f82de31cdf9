// Checkpoint support: the Recorder's side of the congest.Stateful
// contract, so phase-attributed accounting survives an engine
// checkpoint/restore bit-exactly. The snapshot covers the accounting
// state (per-phase breakdowns, totals, run counter and run base, current
// phase) but not the sinks: a restored Recorder keeps its own sinks and
// start time, and the resumed run's events flow into them from the
// resume point on. Nor does it cover the global round: a snapshot is taken
// at the top of a round the resumed run executes, and that round's
// RoundDone rewrites the global round before any RunStart reads it.
package obs

import (
	"fmt"

	"repro/internal/congest"
)

// CurrentPhase implements congest.PhaseTracker: it reports the phase a
// crash or checkpoint at this instant would be attributed to. Safe to
// call from engine worker goroutines.
func (r *Recorder) CurrentPhase() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return DefaultPhase
	}
	return r.cur.Phase
}

// State implements congest.Stateful. Decoding replaces the accounting
// state with the snapshot's, discarding whatever the Recorder accumulated
// while deterministically re-executing the rounds the snapshot already
// covers. Sinks and start time are untouched.
func (r *Recorder) State(c *congest.Codec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.Int(&r.runs)
	c.Int(&r.runBase)
	cur := ""
	if r.cur != nil {
		cur = r.cur.Phase
	}
	c.String(&cur)
	c.Stats(&r.total)
	c.Bool(&r.physSeen)
	r.phys.Walk(c)
	for i := range congest.Slice(c, &r.order) {
		if r.order[i] == nil {
			r.order[i] = &PhaseBreakdown{}
		}
		p := r.order[i]
		c.String(&p.Phase)
		c.Stats(&p.Stats)
		c.Int(&p.Runs)
		c.Int(&p.RoundsExecuted)
		congest.Varint(c, &p.Wall)
		p.Phys.Walk(c)
	}
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	r.byName = make(map[string]*PhaseBreakdown, len(r.order))
	for _, p := range r.order {
		if _, dup := r.byName[p.Phase]; dup {
			return fmt.Errorf("obs: snapshot has duplicate phase %q", p.Phase)
		}
		r.byName[p.Phase] = p
	}
	r.cur = nil
	if cur != "" {
		p, ok := r.byName[cur]
		if !ok {
			return fmt.Errorf("obs: snapshot current phase %q not in breakdown", cur)
		}
		r.cur = p
	}
	return nil
}
