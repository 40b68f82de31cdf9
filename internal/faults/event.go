package faults

import (
	"fmt"
	"strconv"

	"repro/internal/key"
)

// Kind classifies a single explicit fault event.
type Kind int

const (
	// DropEvent destroys the transmission.
	DropEvent Kind = iota
	// DelayEvent defers it by Arg sub-rounds (logical rounds under
	// internal/difftest's raw-delivery injector).
	DelayEvent
	// DupEvent injects one extra copy, deferred by Arg sub-rounds
	// (logical rounds under that injector).
	DupEvent
	// CrashEvent crash-stops node From at the start of round Round (To is
	// unused and must be 0): the engine aborts the run at the barrier with
	// a congest.CrashError before any node steps. Arg, when positive, is
	// the restart offset k — the fault plan allows the node back at round
	// Round+k, and a supervisor may restore the latest checkpoint; Arg=0
	// is an unrecoverable crash-stop. A crash fires once and disarms for
	// the lifetime of the Network (across Reset and checkpoint restore
	// alike — crash-stop is an event, not reconstructible state).
	CrashEvent
)

var kindNames = [...]string{"drop", "delay", "dup", "crash"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown event kind %q", s)
}

// Event is one explicit fault: it applies to the first transmission
// attempt of the message sent on link From→To in logical round Round (in
// CONGEST a link direction carries at most one message per round, so the
// triple identifies the message). A Network whose Script holds a drop,
// delay or duplicate injects exactly the scripted events and nothing else:
// the replayable, shrinkable form of a fault plan (difftest.Shrink minimizes
// event lists; internal/difftest's raw-delivery injector records one Event
// per fault its plan injects, so any chaos run can be turned into a
// script).
type Event struct {
	Round    int
	From, To int
	Kind     Kind
	// Arg is the delay amount for DelayEvent and the extra copy's delay
	// for DupEvent; unused for DropEvent.
	Arg int
}

// String renders the event in the fixture form ParseEvent accepts:
// "round=R from=U to=V kind=K" with " arg=N" appended when non-zero.
func (e Event) String() string {
	s := fmt.Sprintf("round=%d from=%d to=%d kind=%s", e.Round, e.From, e.To, e.Kind)
	if e.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	return s
}

// ParseEvent is the inverse of Event.String.
func ParseEvent(s string) (Event, error) {
	var e Event
	err := key.Scan("faults", "event field", s, "", key.Vocab{
		"round": {Need: true, Set: key.Into(&e.Round, strconv.Atoi)},
		"from":  {Need: true, Set: key.Into(&e.From, strconv.Atoi)},
		"to":    {Need: true, Set: key.Into(&e.To, strconv.Atoi)},
		"kind":  {Need: true, Set: key.Into(&e.Kind, ParseKind)},
		"arg":   {Set: key.Into(&e.Arg, strconv.Atoi)},
	})
	if err != nil {
		return Event{}, err
	}
	return e, nil
}

// scriptFateOf collects the scripted fate of the message sent on From→To
// in round r. Multiple events for one message compose (e.g. Delay + Dup).
func scriptFateOf(script []Event, r, from, to int) Fate {
	var f Fate
	for _, e := range script {
		if e.Round != r || e.From != from || e.To != to {
			continue
		}
		switch e.Kind {
		case DropEvent:
			f.Drop = true
		case DelayEvent:
			f.Delay = max(f.Delay, e.Arg)
		case DupEvent:
			f.Dup = true
			f.DupDelay = max(f.DupDelay, e.Arg)
		}
	}
	return f
}
