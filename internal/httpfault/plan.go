// Package httpfault is the adversarial substrate for the HTTP serving
// path, the serving-layer sibling of internal/faults: a seeded, fully
// deterministic fault injector for the transport underneath
// internal/oracle's HTTP surface, designed to be paired with a
// reliability layer (internal/client) that restores exact request
// semantics over it.
//
// Where internal/faults perturbs per-transmission delivery under the
// CONGEST round abstraction, this package perturbs whole HTTP exchanges:
// per-request added latency, connection resets (before or after the
// request reaches the server), synthesized 500/503 responses, truncated
// response bodies and blackholes (the request hangs until the caller's
// context gives up). Every decision is drawn from a keyed PRF of
// (seed, kind, request index), so a run is a pure function of the plan
// and the request order — independent of host scheduling. Tests that need
// exact faults script them with internal/difftest's HTTPScript, which
// applies each scripted Fate through Transport.Apply.
//
// The injector has two attachment points: Transport wraps an
// http.RoundTripper (client side — faults on the way out and the way
// back), and Listener wraps a net.Listener (server side — accepted
// connections die mid-stream), so chaos can be injected into either end
// of a real TCP conversation or into an in-process handler chain.
package httpfault

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/key"
)

// Plan is a deterministic fault model for the HTTP substrate. The zero
// value is the perfect transport: every request passes through untouched.
type Plan struct {
	// Seed keys the fault PRF. Two runs over the same request order see
	// the same faults; 0 is a valid seed.
	Seed int64
	// MaxDelay bounds the extra latency injected per request: each
	// affected request sleeps a duration drawn uniformly from
	// (0, MaxDelay]. 0 disables delay injection.
	MaxDelay time.Duration
	// DelayP is the per-request probability of injected latency.
	DelayP float64
	// Reset is the per-request probability of a connection reset. Half of
	// the resets (by an independent PRF draw) fire before the request
	// reaches the server — the request is lost; the other half fire after
	// the exchange completed — the response is lost but the server did the
	// work. The second flavor is what makes retry idempotency observable.
	Reset float64
	// Err500 and Err503 are per-request probabilities of a synthesized
	// 500/503 response (the request never reaches the inner transport;
	// 503s carry a Retry-After: 1 header, like a shedding server).
	Err500 float64
	Err503 float64
	// Truncate is the per-request probability that the response body is
	// cut at half its declared length and the connection errors mid-read.
	Truncate float64
	// Blackhole is the per-request probability that the request hangs
	// until the request context is done (the client's deadline is the only
	// way out).
	Blackhole float64
}

// MaxMaxDelay bounds Plan.MaxDelay: anything longer than a second is a
// blackhole in disguise (and makes deterministic tests crawl).
const MaxMaxDelay = time.Second

// Validate reports whether the plan's parameters are in range.
func (p Plan) Validate() error {
	if p.MaxDelay < 0 || p.MaxDelay > MaxMaxDelay {
		return fmt.Errorf("httpfault: MaxDelay %v out of range [0, %v]", p.MaxDelay, MaxMaxDelay)
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"DelayP", p.DelayP}, {"Reset", p.Reset}, {"Err500", p.Err500},
		{"Err503", p.Err503}, {"Truncate", p.Truncate}, {"Blackhole", p.Blackhole},
	} {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("httpfault: %s %v out of range [0, 1]", pr.name, pr.v)
		}
	}
	return nil
}

// All is the standard chaos plan of the E-CHAOS and E-CLUSTER drills and
// the "all" CLI shorthand: 20% of requests delayed up to 2ms, 10% reset,
// 5% each of 500s and 503s, 5% truncated, 2% blackholed.
func All(seed int64) Plan {
	return Plan{
		Seed: seed, MaxDelay: 2 * time.Millisecond, DelayP: 0.2,
		Reset: 0.1, Err500: 0.05, Err503: 0.05, Truncate: 0.05, Blackhole: 0.02,
	}
}

// Parse decodes a plan from its textual form: comma-separated terms
// "delay=DUR", "delayp=P", "reset=P", "err500=P", "err503=P",
// "truncate=P", "blackhole=P" and "seed=N", in any order, each at most
// once. The presets "" and "none" give the zero plan and "all" gives
// All(0).
// Parse(p.String()) == p for every valid plan (FuzzHTTPFaultPlan).
func Parse(s string) (Plan, error) {
	var p Plan
	switch strings.TrimSpace(s) {
	case "", "none":
		return p, nil
	case "all":
		return All(0), nil
	}
	err := key.Scan("httpfault", "plan term", s, ",", key.Vocab{
		"delay":     {Set: key.Into(&p.MaxDelay, time.ParseDuration)},
		"delayp":    {Set: key.Into(&p.DelayP, key.Float)},
		"reset":     {Set: key.Into(&p.Reset, key.Float)},
		"err500":    {Set: key.Into(&p.Err500, key.Float)},
		"err503":    {Set: key.Into(&p.Err503, key.Float)},
		"truncate":  {Set: key.Into(&p.Truncate, key.Float)},
		"blackhole": {Set: key.Into(&p.Blackhole, key.Float)},
		"seed":      {Set: key.Into(&p.Seed, key.Int64)},
	})
	if err != nil {
		return Plan{}, err
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in the canonical form Parse accepts: active
// terms in delay, delayp, reset, err500, err503, truncate, blackhole,
// seed order; "none" for the zero plan.
func (p Plan) String() string {
	var terms []string
	if p.MaxDelay != 0 {
		terms = append(terms, "delay="+p.MaxDelay.String())
	}
	prob := func(k string, v float64) {
		if v != 0 {
			terms = append(terms, k+"="+key.Prob(v))
		}
	}
	prob("delayp", p.DelayP)
	prob("reset", p.Reset)
	prob("err500", p.Err500)
	prob("err503", p.Err503)
	prob("truncate", p.Truncate)
	prob("blackhole", p.Blackhole)
	if p.Seed != 0 {
		terms = append(terms, fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(terms) == 0 {
		return "none"
	}
	return strings.Join(terms, ",")
}

// PRF domains. Every random decision is keyed by one of these so
// decisions are independent of each other and of evaluation order.
const (
	kindDelay uint64 = iota + 1
	kindDelayAmount
	kindReset
	kindResetSide
	kindErr500
	kindErr503
	kindTruncate
	kindBlackhole
	kindConnKill
)

// prf draws the decision word for one (kind, request index) key under the
// plan's seed — the shared internal/key discipline.
func (p Plan) prf(kind, req uint64) uint64 {
	return key.Mix64(key.PRF(p.Seed, kind) ^ req)
}

// planFate draws request req's fate from the probabilistic plan. At most
// one terminal fault (reset/500/503/truncate/blackhole) applies, resolved
// in a fixed precedence order so the per-kind probabilities stay
// independent PRF draws; delay composes with any of them.
func (p Plan) planFate(req uint64) Fate {
	var f Fate
	if p.DelayP > 0 && p.MaxDelay > 0 && u01(p.prf(kindDelay, req)) < p.DelayP {
		f.Delay = time.Duration(1 + p.prf(kindDelayAmount, req)%uint64(p.MaxDelay))
	}
	switch {
	case p.Blackhole > 0 && u01(p.prf(kindBlackhole, req)) < p.Blackhole:
		f.Blackhole = true
	case p.Reset > 0 && u01(p.prf(kindReset, req)) < p.Reset:
		f.Reset = true
		f.ResetAfter = p.prf(kindResetSide, req)&1 == 1
	case p.Err500 > 0 && u01(p.prf(kindErr500, req)) < p.Err500:
		f.Err500 = true
	case p.Err503 > 0 && u01(p.prf(kindErr503, req)) < p.Err503:
		f.Err503 = true
	case p.Truncate > 0 && u01(p.prf(kindTruncate, req)) < p.Truncate:
		f.Truncate = true
	}
	return f
}

// u01 maps a PRF word to [0, 1).
func u01(h uint64) float64 { return key.U01(h) }
