// Package client is the resilient HTTP client for the apspd serving
// layer: deadlines, retries with exponential backoff and full jitter, a
// per-endpoint circuit breaker, and hedged requests after a p99-based
// delay. It is the reliability layer that restores request semantics over
// a faulty substrate (internal/httpfault) — the serving-layer analogue of
// the engine's α-synchronizer shim — and the primitive the oracle-cluster
// router fans out and hedges with.
//
// The contract mirrors the engine shim's: given an idempotent GET/POST
// query endpoint, Do either returns a response the server actually
// produced, or an error — never a fabricated or torn answer. Response
// bodies are read fully inside the attempt, so a mid-body connection cut
// (a truncation) is a retryable attempt failure, not a JSON decode
// surprise at the caller.
//
// Randomized decisions (backoff jitter) are drawn from a seeded splitmix
// counter, so a single-goroutine request sequence without hedging is fully
// deterministic — the property E-CHAOS's serial rows stand on
// (TestChaosSerialRowsDeterministic in internal/experiments pins it).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/key"
)

// Defaults (applied by New when the Options field is zero).
const (
	DefaultAttemptTimeout = 1 * time.Second
	DefaultMaxAttempts    = 4
	DefaultBaseBackoff    = 5 * time.Millisecond
	DefaultMaxBackoff     = 250 * time.Millisecond
	DefaultCapRetryAfter  = 1 * time.Second
	DefaultBreakerTrip    = 8
	DefaultHedgeQuantile  = 0.99
	DefaultMinHedgeDelay  = 1 * time.Millisecond
	// breakerCooloff is how long an open breaker fails fast before it
	// lets one probe through.
	breakerCooloff = 100 * time.Millisecond
)

// Options configures a Client.
type Options struct {
	// Transport performs the exchanges (nil = http.DefaultTransport).
	// Wrap an httpfault.Transport here to test against chaos.
	Transport http.RoundTripper
	// AttemptTimeout bounds each individual attempt; the caller's context
	// bounds the whole Do.
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of attempts per Do (first + retries).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff: attempt i
	// sleeps a full-jitter draw from (0, min(MaxBackoff, BaseBackoff·2^i)].
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// CapRetryAfter bounds how long a server-sent Retry-After is honored
	// (a shedding server asking for an hour must not pin the caller).
	CapRetryAfter time.Duration
	// Seed keys the jitter PRF; a fixed seed makes a serial request
	// sequence's backoff schedule reproducible.
	Seed int64
	// BreakerTrip is the consecutive-failure count that opens an
	// endpoint's circuit breaker (<= -1 disables the breaker; 0 means the
	// default). While open, Do fails fast with ErrBreakerOpen; after
	// breakerCooloff one probe is let through (half-open) and its outcome
	// closes or re-opens the circuit.
	BreakerTrip int
	// Hedge launches one extra (hedged) attempt per attempt round when
	// the first has not answered within the hedge delay.
	Hedge bool
	// HedgeDelay, when positive, is the hedge delay; 0 derives it from the
	// observed attempt-latency quantile (DefaultHedgeQuantile, floored at
	// DefaultMinHedgeDelay). Without Hedge it has no effect.
	HedgeDelay time.Duration
}

// ErrBreakerOpen is returned (wrapped) when an endpoint's circuit
// breaker is open and the cooloff has not expired.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Response is a fully-read HTTP answer: by the time a caller sees one,
// the body has been drained and the connection returned to the pool, so a
// truncated body can never reach a decoder.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Stats counts the client's reliability work (atomic; read via Snapshot).
type Stats struct {
	Requests     uint64 // Do calls
	Attempts     uint64 // individual HTTP attempts (incl. hedges)
	Retries      uint64 // backoff-then-retry transitions
	Hedges       uint64 // hedged attempts launched
	HedgeWins    uint64 // hedges that answered first
	RetryAfter   uint64 // waits extended by a server Retry-After
	BreakerFast  uint64 // Do calls failed fast on an open breaker
	BreakerOpens uint64 // closed->open transitions
	Successes    uint64 // Do calls that returned a response
	Failures     uint64 // Do calls that returned an error
}

type statCell struct {
	requests, attempts, retries, hedges, hedgeWins atomic.Uint64
	retryAfter, breakerFast, breakerOpens          atomic.Uint64
	successes, failures                            atomic.Uint64
}

func (c *statCell) snapshot() Stats {
	return Stats{
		Requests: c.requests.Load(), Attempts: c.attempts.Load(),
		Retries: c.retries.Load(), Hedges: c.hedges.Load(), HedgeWins: c.hedgeWins.Load(),
		RetryAfter: c.retryAfter.Load(), BreakerFast: c.breakerFast.Load(),
		BreakerOpens: c.breakerOpens.Load(),
		Successes:    c.successes.Load(), Failures: c.failures.Load(),
	}
}

// Client is the resilient HTTP client. Safe for concurrent use.
type Client struct {
	opts     Options
	breakers *breakerSet
	lat      *latWindow
	cell     statCell
	jitterN  atomic.Uint64
}

// New applies defaults and builds a Client.
func New(opts Options) *Client {
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = DefaultAttemptTimeout
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = DefaultBaseBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.CapRetryAfter <= 0 {
		opts.CapRetryAfter = DefaultCapRetryAfter
	}
	if opts.BreakerTrip == 0 {
		opts.BreakerTrip = DefaultBreakerTrip
	}
	return &Client{
		opts:     opts,
		breakers: newBreakerSet(opts.BreakerTrip),
		lat:      newLatWindow(256),
	}
}

// Snapshot returns cumulative reliability counters.
func (c *Client) Snapshot() Stats { return c.cell.snapshot() }

// GetJSON fetches url and decodes a 200 answer into out (out may be nil).
// Non-2xx final statuses are returned as the Response with a nil error —
// the caller owns status policy; transport-level failure owns the error.
func (c *Client) GetJSON(ctx context.Context, url string, out any) (*Response, error) {
	return c.do(ctx, http.MethodGet, url, "", nil, out)
}

// PostJSON posts body to url and decodes a 200 answer into out.
func (c *Client) PostJSON(ctx context.Context, url string, body []byte, out any) (*Response, error) {
	return c.do(ctx, http.MethodPost, url, "application/json", body, out)
}

// Do issues one resilient exchange without decoding.
func (c *Client) Do(ctx context.Context, method, url, contentType string, body []byte) (*Response, error) {
	return c.do(ctx, method, url, contentType, body, nil)
}

func (c *Client) do(ctx context.Context, method, url, contentType string, body []byte, out any) (*Response, error) {
	c.cell.requests.Add(1)
	key := endpointKey(url)
	var lastErr error
	var lastResp *Response
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		if attempt > 0 {
			c.cell.retries.Add(1)
			if err := c.sleepBackoff(ctx, attempt, lastResp); err != nil {
				break
			}
		}
		switch c.breakers.allow(key) {
		case admitOpen:
			c.cell.breakerFast.Add(1)
			c.cell.failures.Add(1)
			return nil, fmt.Errorf("client: %s %s: %w", method, key, ErrBreakerOpen)
		case admitProbe, admitClosed:
		}
		resp, err := c.hedgedAttempt(ctx, method, url, contentType, body)
		if err == nil && !retryableStatus(resp.Status) {
			c.breakers.report(key, resp.Status < 500, &c.cell)
			c.cell.successes.Add(1)
			if out != nil && resp.Status == http.StatusOK {
				if derr := decodeJSON(resp.Body, out); derr != nil {
					return resp, derr
				}
			}
			return resp, nil
		}
		c.breakers.report(key, false, &c.cell)
		lastErr, lastResp = err, resp
	}
	c.cell.failures.Add(1)
	if lastErr == nil {
		if lastResp != nil {
			return nil, fmt.Errorf("client: %s %s: attempts exhausted on HTTP %d", method, key, lastResp.Status)
		}
		lastErr = ctx.Err()
	}
	return nil, fmt.Errorf("client: %s %s: %w", method, key, lastErr)
}

// retryableStatus: 5xx and 429 are the transient server conditions the
// serving layer emits under shed/degradation; everything else is final.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// sleepBackoff waits the full-jitter exponential backoff before retry
// `attempt`, stretched to a capped server Retry-After when the previous
// response carried one.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, prev *Response) error {
	d := c.backoff(attempt)
	if ra := retryAfterOf(prev); ra > 0 {
		if ra > c.opts.CapRetryAfter {
			ra = c.opts.CapRetryAfter
		}
		if ra > d {
			d = ra
			c.cell.retryAfter.Add(1)
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff draws the full-jitter sleep for retry `attempt` (1-based):
// uniform in (0, min(MaxBackoff, Base·2^(attempt-1))].
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.opts.BaseBackoff << uint(attempt-1)
	if ceil > c.opts.MaxBackoff || ceil <= 0 {
		ceil = c.opts.MaxBackoff
	}
	return time.Duration(1 + c.rand()%uint64(ceil))
}

// rand is the seeded splitmix64 jitter stream (the shared internal/key
// counter-mode discipline; draw n is bit-identical to the pre-dedup
// inline mixer, so fixed-seed backoff schedules replay unchanged).
func (c *Client) rand() uint64 {
	return key.Stream(c.opts.Seed, c.jitterN.Add(1))
}

// retryAfterOf parses a delta-seconds Retry-After from the previous
// response (HTTP-dates are ignored: the serving layer sends seconds).
func retryAfterOf(resp *Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// hedgedAttempt races the primary attempt against one hedge launched
// after the hedge delay. The first outcome that is a usable response
// wins; the loser is canceled. With hedging disabled it is one plain
// attempt.
func (c *Client) hedgedAttempt(ctx context.Context, method, url, contentType string, body []byte) (*Response, error) {
	if !c.opts.Hedge {
		return c.attempt(ctx, method, url, contentType, body)
	}
	type outcome struct {
		resp *Response
		err  error
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func() {
		go func() {
			r, err := c.attempt(actx, method, url, contentType, body)
			ch <- outcome{r, err}
		}()
	}
	launch()
	hedged, pending := false, 1
	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	var firstErr error
	var firstResp *Response
	for {
		select {
		case o := <-ch:
			pending--
			ok := o.err == nil && !retryableStatus(o.resp.Status)
			if ok {
				if hedged {
					// Did the hedge produce this? The primary reports first on
					// the channel only if it finished first; any win after a
					// hedge launch counts the race as hedged either way —
					// what matters for accounting is that the hedge fired.
					c.cell.hedgeWins.Add(1)
				}
				return o.resp, nil
			}
			if firstErr == nil && firstResp == nil {
				firstResp, firstErr = o.resp, o.err
			}
			if pending == 0 {
				return firstResp, firstErr
			}
		case <-hedge.C: // fires at most once: the timer is never re-armed
			c.cell.hedges.Add(1)
			launch()
			hedged = true
			pending++
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hedgeDelay resolves the hedge trigger: the explicit option, or the
// observed attempt-latency quantile floored at DefaultMinHedgeDelay.
func (c *Client) hedgeDelay() time.Duration {
	if c.opts.HedgeDelay > 0 {
		return c.opts.HedgeDelay
	}
	if q := c.lat.quantile(DefaultHedgeQuantile); q > DefaultMinHedgeDelay {
		return q
	}
	return DefaultMinHedgeDelay
}

// attempt is one complete HTTP exchange: build the request (fresh body
// reader — attempts never share consumed bodies), bound it by the
// attempt timeout, read the body to the end. Any failure along the way —
// transport error, truncated body — is an attempt error.
func (c *Client) attempt(ctx context.Context, method, url, contentType string, body []byte) (*Response, error) {
	c.cell.attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	transport := c.opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	start := time.Now()
	resp, err := transport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading body: %w", err)
	}
	c.lat.observe(time.Since(start))
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

func decodeJSON(data []byte, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: bad JSON answer %.120q: %w", data, err)
	}
	return nil
}

// endpointKey is the circuit-breaker granularity: scheme://host/path
// (query parameters vary per request and must share a breaker).
func endpointKey(url string) string {
	if i := strings.IndexByte(url, '?'); i >= 0 {
		return url[:i]
	}
	return url
}
