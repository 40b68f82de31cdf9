package httpfault

import (
	"fmt"
	"time"
)

// Kind classifies a single explicit HTTP fault event.
type Kind int

const (
	// DelayEvent defers the request by Arg (a duration in nanoseconds).
	DelayEvent Kind = iota
	// ResetEvent kills the exchange with a connection-reset error. Arg 0
	// resets before the request reaches the server (the request is lost);
	// Arg 1 resets after the exchange completed (the server did the work,
	// the client never saw the answer).
	ResetEvent
	// Err500Event answers the request with a synthesized 500 without
	// reaching the server.
	Err500Event
	// Err503Event answers with a synthesized 503 carrying Retry-After: 1.
	Err503Event
	// TruncateEvent cuts the response body at half its length and errors
	// the remaining read.
	TruncateEvent
	// BlackholeEvent hangs the request until its context is done.
	BlackholeEvent
)

var kindNames = [...]string{"delay", "reset", "err500", "err503", "truncate", "blackhole"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one explicit fault applied to the Req-th request seen by the
// Transport (0-based, in admission order). A Transport with a non-nil
// Script injects exactly the scripted events and nothing else — the
// exact, shrinkable form of an HTTP fault plan.
type Event struct {
	Req  uint64
	Kind Kind
	// Arg is the delay in nanoseconds for DelayEvent and the reset side
	// (0 = before, 1 = after) for ResetEvent; unused otherwise.
	Arg int64
}

// String renders the event as "req=N kind=K", with " arg=N" appended
// when non-zero.
func (e Event) String() string {
	s := fmt.Sprintf("req=%d kind=%s", e.Req, e.Kind)
	if e.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	return s
}

// fate is the resolved fault assignment for one request. The zero fate is
// a clean pass-through.
type fate struct {
	delay      time.Duration
	reset      bool
	resetAfter bool // reset fires after the exchange, not before
	err500     bool
	err503     bool
	truncate   bool
	blackhole  bool
}

// planFate draws request req's fate from the probabilistic plan. At most
// one terminal fault (reset/500/503/truncate/blackhole) applies, resolved
// in a fixed precedence order so the per-kind probabilities stay
// independent PRF draws; delay composes with any of them.
func (p Plan) planFate(req uint64) fate {
	var f fate
	if p.DelayP > 0 && p.MaxDelay > 0 && u01(p.prf(kindDelay, req)) < p.DelayP {
		f.delay = time.Duration(1 + p.prf(kindDelayAmount, req)%uint64(p.MaxDelay))
	}
	switch {
	case p.Blackhole > 0 && u01(p.prf(kindBlackhole, req)) < p.Blackhole:
		f.blackhole = true
	case p.Reset > 0 && u01(p.prf(kindReset, req)) < p.Reset:
		f.reset = true
		f.resetAfter = p.prf(kindResetSide, req)&1 == 1
	case p.Err500 > 0 && u01(p.prf(kindErr500, req)) < p.Err500:
		f.err500 = true
	case p.Err503 > 0 && u01(p.prf(kindErr503, req)) < p.Err503:
		f.err503 = true
	case p.Truncate > 0 && u01(p.prf(kindTruncate, req)) < p.Truncate:
		f.truncate = true
	}
	return f
}

// scriptFate aggregates the scripted events matching request req.
// Multiple events compose (e.g. Delay + Reset); conflicting terminal
// kinds resolve in blackhole > reset > err500 > err503 > truncate order,
// matching the probabilistic precedence.
func scriptFate(script []Event, req uint64) fate {
	var f fate
	for _, e := range script {
		if e.Req != req {
			continue
		}
		switch e.Kind {
		case DelayEvent:
			if d := time.Duration(e.Arg); d > f.delay {
				f.delay = d
			}
		case ResetEvent:
			f.reset = true
			f.resetAfter = e.Arg == 1
		case Err500Event:
			f.err500 = true
		case Err503Event:
			f.err503 = true
		case TruncateEvent:
			f.truncate = true
		case BlackholeEvent:
			f.blackhole = true
		}
	}
	// Precedence: a scripted blackhole wins over everything, then reset,
	// then the synthesized statuses, then truncation.
	switch {
	case f.blackhole:
		f.reset, f.err500, f.err503, f.truncate = false, false, false, false
	case f.reset:
		f.err500, f.err503, f.truncate = false, false, false
	case f.err500:
		f.err503, f.truncate = false, false
	case f.err503:
		f.truncate = false
	}
	return f
}
