package httpfault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// ErrReset is the error surfaced for injected connection resets (both
// sides of the exchange). It unwraps from every reset the Transport
// returns, so callers can classify injected failures precisely.
var ErrReset = errors.New("httpfault: connection reset by chaos")

// ErrTruncated is the error surfaced by a truncated response body's final
// Read.
var ErrTruncated = errors.New("httpfault: response body truncated by chaos")

// Stats counts injected faults (atomic; read with Snapshot).
type Stats struct {
	Requests    uint64 // exchanges that entered the injector
	Delays      uint64
	ResetsPre   uint64 // resets before the server saw the request
	ResetsPost  uint64 // resets after the server did the work
	Err500s     uint64
	Err503s     uint64
	Truncations uint64
	Blackholes  uint64
}

// statCell is the live atomic form of Stats.
type statCell struct {
	requests, delays, resetsPre, resetsPost   atomic.Uint64
	err500s, err503s, truncations, blackholes atomic.Uint64
}

func (c *statCell) snapshot() Stats {
	return Stats{
		Requests:    c.requests.Load(),
		Delays:      c.delays.Load(),
		ResetsPre:   c.resetsPre.Load(),
		ResetsPost:  c.resetsPost.Load(),
		Err500s:     c.err500s.Load(),
		Err503s:     c.err503s.Load(),
		Truncations: c.truncations.Load(),
		Blackholes:  c.blackholes.Load(),
	}
}

// Transport is a fault-injecting http.RoundTripper. Faults are drawn per
// request from the Plan's keyed PRF (request indices are assigned in
// admission order). The zero value with only Inner set is a transparent
// pass-through.
type Transport struct {
	// Plan is the probabilistic fault model.
	Plan Plan
	// Inner performs the real exchanges (nil = http.DefaultTransport).
	Inner http.RoundTripper

	seq  atomic.Uint64
	cell statCell
}

// Fate is the resolved fault assignment for one request. The zero Fate is
// a clean pass-through.
type Fate struct {
	Delay      time.Duration
	Reset      bool
	ResetAfter bool // the reset fires after the exchange, not before
	Err500     bool
	Err503     bool
	Truncate   bool
	Blackhole  bool
}

// Snapshot returns the cumulative injection counts.
func (t *Transport) Snapshot() Stats { return t.cell.snapshot() }

// RoundTrip implements http.RoundTripper: it draws the request's fate
// from Plan and applies it.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.seq.Add(1) - 1
	return t.Apply(req, i, t.Plan.planFate(i))
}

// Apply carries out fate f for request req, the i-th the caller admitted,
// and counts it: it applies the delay, then either synthesizes the fault
// or forwards the request to Inner.
func (t *Transport) Apply(req *http.Request, i uint64, f Fate) (*http.Response, error) {
	t.cell.requests.Add(1)
	ctx := req.Context()
	if f.Delay > 0 {
		t.cell.delays.Add(1)
		timer := time.NewTimer(f.Delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			closeBody(req)
			return nil, ctx.Err()
		}
	}
	switch {
	case f.Blackhole:
		t.cell.blackholes.Add(1)
		closeBody(req)
		<-ctx.Done()
		return nil, fmt.Errorf("httpfault: request %d blackholed: %w", i, ctx.Err())
	case f.Reset && !f.ResetAfter:
		t.cell.resetsPre.Add(1)
		closeBody(req)
		return nil, &net.OpError{Op: "write", Net: "tcp", Err: ErrReset}
	case f.Err500:
		t.cell.err500s.Add(1)
		closeBody(req)
		return synthesize(req, http.StatusInternalServerError, nil), nil
	case f.Err503:
		t.cell.err503s.Add(1)
		closeBody(req)
		return synthesize(req, http.StatusServiceUnavailable, http.Header{"Retry-After": {"1"}}), nil
	}

	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch {
	case f.Reset: // ResetAfter: the server did the work, the answer is lost
		t.cell.resetsPost.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: ErrReset}
	case f.Truncate:
		t.cell.truncations.Add(1)
		resp.Body = truncateBody(resp.Body, resp.ContentLength)
		return resp, nil
	}
	return resp, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// synthesize fabricates an error response that never touched the wire.
func synthesize(req *http.Request, status int, hdr http.Header) *http.Response {
	body := fmt.Sprintf(`{"error":"httpfault: injected %d"}`, status)
	h := http.Header{"Content-Type": {"application/json"}}
	for k, vs := range hdr {
		h[k] = vs
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody returns a body that yields the first half of the declared
// content length (or 16 bytes when unknown) and then fails the read with
// ErrTruncated — the mid-body connection drop a JSON decoder must never
// paper over.
func truncateBody(inner io.ReadCloser, contentLength int64) io.ReadCloser {
	cut := int64(16)
	if contentLength > 1 {
		cut = contentLength / 2
	}
	return &truncatedBody{inner: inner, remaining: cut}
}

type truncatedBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, ErrTruncated
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The inner body ended before the cut (chunked or tiny bodies):
		// the truncation must still read as a failure, not a clean EOF.
		err = ErrTruncated
	}
	return n, err
}

func (b *truncatedBody) Close() error {
	io.Copy(io.Discard, b.inner) // keep the underlying connection reusable
	return b.inner.Close()
}

// Listener wraps a net.Listener with server-side chaos: each accepted
// connection is assigned a fate from the same keyed PRF (by connection
// index) and, when selected, is abruptly closed after a bounded number of
// writes — the server-side mirror of a client-observed connection reset.
// KillP is the per-connection kill probability.
type Listener struct {
	net.Listener
	Plan  Plan
	KillP float64

	seq atomic.Uint64
}

// WrapListener wraps ln so that a KillP fraction of accepted connections
// die mid-stream, deterministically by connection index under plan.Seed.
func WrapListener(ln net.Listener, plan Plan, killP float64) *Listener {
	return &Listener{Listener: ln, Plan: plan, KillP: killP}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	i := l.seq.Add(1) - 1
	if l.KillP <= 0 || u01(l.Plan.prf(kindConnKill, i)) >= l.KillP {
		return c, nil
	}
	// Kill after 1..8 writes: late enough that a response may be mid-
	// flight, early enough that every killed connection actually dies.
	return &killedConn{Conn: c, writesLeft: int64(1 + l.Plan.prf(kindConnKill, ^i)%8)}, nil
}

// killedConn aborts the connection on its n-th write. TCP connections get
// SO_LINGER 0 so the close is an RST — the client observes a genuine
// connection reset, not a graceful FIN that reads as clean EOF.
type killedConn struct {
	net.Conn
	writesLeft int64
	killed     atomic.Bool
}

func (c *killedConn) Write(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: ErrReset}
	}
	if atomic.AddInt64(&c.writesLeft, -1) <= 0 {
		c.kill()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: ErrReset}
	}
	return c.Conn.Write(p)
}

func (c *killedConn) kill() {
	if c.killed.Swap(true) {
		return
	}
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}
