package client

import (
	"sync"
	"time"
)

// admit is the breaker's admission verdict.
type admit int

const (
	admitClosed admit = iota // circuit closed: proceed normally
	admitProbe               // half-open: this request is the probe
	admitOpen                // open: fail fast
)

// breakerState is one endpoint's circuit.
type breakerState struct {
	fails   int       // consecutive failures while closed
	open    bool      // circuit open (fail fast until `until`)
	until   time.Time // when the open circuit allows a half-open probe
	probing bool      // a probe is in flight (half-open)
}

// breakerSet is the per-endpoint circuit-breaker table. A breaker exists
// to stop hammering an endpoint that is down — the retry loop would
// otherwise multiply load exactly when the server can least afford it —
// while the half-open probe discovers recovery without a thundering herd.
type breakerSet struct {
	trip int // consecutive failures that open the circuit (<0 = disabled)

	mu sync.Mutex
	m  map[string]*breakerState
}

func newBreakerSet(trip int) *breakerSet {
	return &breakerSet{trip: trip, m: make(map[string]*breakerState)}
}

// allow decides admission for one Do against the endpoint's circuit.
func (b *breakerSet) allow(key string) admit {
	if b.trip < 0 {
		return admitClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[key]
	if st == nil {
		return admitClosed
	}
	if !st.open {
		return admitClosed
	}
	if time.Now().Before(st.until) || st.probing {
		return admitOpen
	}
	st.probing = true // half-open: exactly one probe at a time
	return admitProbe
}

// report feeds an attempt outcome back into the circuit. opens is
// incremented (via the stats cell) on each closed→open transition.
func (b *breakerSet) report(key string, ok bool, cell *statCell) {
	if b.trip < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.m[key]
	if st == nil {
		st = &breakerState{}
		b.m[key] = st
	}
	if ok {
		st.fails = 0
		st.open = false
		st.probing = false
		return
	}
	if st.open {
		// A failed probe (or a straggler) re-arms the open window.
		st.probing = false
		st.until = time.Now().Add(breakerCooloff)
		return
	}
	st.fails++
	if st.fails >= b.trip {
		st.open = true
		st.probing = false
		st.until = time.Now().Add(breakerCooloff)
		if cell != nil {
			cell.breakerOpens.Add(1)
		}
	}
}
