package congest

import "time"

// RoundEvent describes one executed engine round, including trailing
// quiescing rounds in which nothing was sent (Stats.Rounds, by contrast,
// only counts up to the last round with traffic).
type RoundEvent struct {
	// Round is the 1-based round index within this engine run.
	Round int
	// Sent is the number of messages sent this round.
	Sent int
	// Active is the number of nodes that sent at least one message.
	Active int
	// Elapsed is the wall-clock time the round took (node stepping plus
	// validation and routing).
	Elapsed time.Duration
}

// Observer receives engine events. The engine invokes every method
// synchronously on the routing goroutine, so implementations need no
// locking against the engine itself (but must lock if they are shared
// across concurrent engine runs). A nil Observer in Config costs nothing;
// see BenchmarkEngineWorkers*.
//
// internal/obs provides the standard implementation: a phase-attributing
// Recorder with JSONL trace, Chrome trace_event and Prometheus text sinks.
type Observer interface {
	// RunStart fires once per engine run, before round 1, with the number
	// of nodes.
	RunStart(n int)
	// RoundDone fires after every executed round — including the final
	// quiescing round(s) in which no message was sent.
	RoundDone(e RoundEvent)
	// NodeSends fires once per round for each node that sent at least one
	// message, in ascending node order, before that round's RoundDone.
	NodeSends(round, node, msgs int)
	// LinkPeak fires when a link direction's cumulative message count sets
	// a new run maximum (the paper's "congestion"): a sample stream of
	// where congestion concentrates.
	LinkPeak(round, from, to, load int)
	// RunDone fires once when the run ends (normally or with an error),
	// with the final Stats.
	RunDone(s Stats)
}

// Phaser is optionally implemented by Observers that attribute costs to
// named algorithm phases (obs.Recorder does). Multi-phase algorithms call
// SetPhase at phase boundaries; the engine itself never does.
type Phaser interface {
	Phase(name string)
}

// SetPhase switches o's current phase if o supports phase attribution;
// otherwise (including o == nil) it is a no-op.
func SetPhase(o Observer, name string) {
	if p, ok := o.(Phaser); ok {
		p.Phase(name)
	}
}

// NopObserver is an Observer that ignores every event. Embed it to
// implement only the methods you care about.
type NopObserver struct{}

func (NopObserver) RunStart(int)                {}
func (NopObserver) RoundDone(RoundEvent)        {}
func (NopObserver) NodeSends(int, int, int)     {}
func (NopObserver) LinkPeak(int, int, int, int) {}
func (NopObserver) RunDone(Stats)               {}

// RoundFunc adapts a func(round, msgs int), such as Timeline.Observe, to an
// Observer.
type RoundFunc func(round, msgs int)

func (f RoundFunc) RunStart(int)                {}
func (f RoundFunc) RoundDone(e RoundEvent)      { f(e.Round, e.Sent) }
func (f RoundFunc) NodeSends(int, int, int)     {}
func (f RoundFunc) LinkPeak(int, int, int, int) {}
func (f RoundFunc) RunDone(Stats)               {}

// Tee fans events out to several observers in order. Nil entries are
// dropped; Tee returns nil for an empty (or all-nil) list and the observer
// itself for a single entry, so callers can pass the result straight to
// Config.Observer without losing the nil fast path.
func Tee(os ...Observer) Observer {
	kept := make(tee, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	for _, o := range kept {
		if st, ok := o.(Stateful); ok {
			return stateTee{kept, st}
		}
	}
	return kept
}

type tee []Observer

// stateTee is a Tee with a member that has checkpoint state: by the rule
// CurrentPhase uses, the tee's state is its first such member's, so a
// Recorder behind a Tee survives a checkpoint.
type stateTee struct {
	tee
	Stateful
}

func (t tee) RunStart(n int) {
	for _, o := range t {
		o.RunStart(n)
	}
}

func (t tee) RoundDone(e RoundEvent) {
	for _, o := range t {
		o.RoundDone(e)
	}
}

func (t tee) NodeSends(round, node, msgs int) {
	for _, o := range t {
		o.NodeSends(round, node, msgs)
	}
}

func (t tee) LinkPeak(round, from, to, load int) {
	for _, o := range t {
		o.LinkPeak(round, from, to, load)
	}
}

func (t tee) RunDone(s Stats) {
	for _, o := range t {
		o.RunDone(s)
	}
}

// Phase forwards the phase switch to every observer that supports it, so a
// Tee of a Recorder and a plain timeline keeps phase attribution working.
func (t tee) Phase(name string) {
	for _, o := range t {
		SetPhase(o, name)
	}
}

// CurrentPhase reports the first phase-tracking member's phase, so crash
// attribution works through a Tee.
func (t tee) CurrentPhase() string {
	for _, o := range t {
		if pt, ok := o.(PhaseTracker); ok {
			return pt.CurrentPhase()
		}
	}
	return ""
}
