package difftest

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/httpfault"
)

// HTTPKind classifies one scripted HTTP fault.
type HTTPKind int

const (
	// HTTPDelay defers the request by Arg (a duration in nanoseconds).
	HTTPDelay HTTPKind = iota
	// HTTPReset kills the exchange with a connection-reset error. Arg 0
	// resets before the request reaches the server (the request is lost);
	// Arg 1 resets after the exchange completed (the server did the work,
	// the client never saw the answer).
	HTTPReset
	// HTTPErr500 answers the request with a synthesized 500 without
	// reaching the server.
	HTTPErr500
	// HTTPErr503 answers with a synthesized 503 carrying Retry-After: 1.
	HTTPErr503
	// HTTPTruncate cuts the response body at half its length and errors
	// the remaining read.
	HTTPTruncate
	// HTTPBlackhole hangs the request until its context is done.
	HTTPBlackhole
)

// HTTPEvent is one scripted fault, applied to the Req-th request an
// HTTPScript sees (0-based, in admission order).
type HTTPEvent struct {
	Req  uint64
	Kind HTTPKind
	// Arg is the delay in nanoseconds for HTTPDelay and the reset side
	// (0 = before, 1 = after) for HTTPReset; unused otherwise.
	Arg int64
}

// HTTPScript is an http.RoundTripper that injects exactly the scripted
// faults and nothing else: the exact, shrinkable (DDMin) form of an
// httpfault plan. Transport applies and counts each request's fate (its
// Plan is not read; set its Inner to reach a server).
type HTTPScript struct {
	Events    []HTTPEvent
	Transport httpfault.Transport

	seq atomic.Uint64
}

// RoundTrip implements http.RoundTripper.
func (s *HTTPScript) RoundTrip(req *http.Request) (*http.Response, error) {
	i := s.seq.Add(1) - 1
	return s.Transport.Apply(req, i, httpFate(s.Events, i))
}

// httpFate aggregates the scripted events matching request req. Events
// compose (e.g. delay + reset); conflicting terminal kinds resolve in
// blackhole > reset > err500 > err503 > truncate order, the precedence of
// httpfault's probabilistic plan.
func httpFate(script []HTTPEvent, req uint64) httpfault.Fate {
	var f httpfault.Fate
	for _, e := range script {
		if e.Req != req {
			continue
		}
		switch e.Kind {
		case HTTPDelay:
			f.Delay = max(f.Delay, time.Duration(e.Arg))
		case HTTPReset:
			f.Reset = true
			f.ResetAfter = e.Arg == 1
		case HTTPErr500:
			f.Err500 = true
		case HTTPErr503:
			f.Err503 = true
		case HTTPTruncate:
			f.Truncate = true
		case HTTPBlackhole:
			f.Blackhole = true
		}
	}
	switch {
	case f.Blackhole:
		f.Reset, f.Err500, f.Err503, f.Truncate = false, false, false, false
	case f.Reset:
		f.Err500, f.Err503, f.Truncate = false, false, false
	case f.Err500:
		f.Err503, f.Truncate = false, false
	case f.Err503:
		f.Truncate = false
	}
	return f
}
