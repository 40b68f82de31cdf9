package client

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/httpfault"
)

// newEchoServer returns a test server answering {"v":N} where N counts
// the requests that actually reached the handler.
func newEchoServer(t *testing.T) (*httptest.Server, *atomic.Uint64) {
	t.Helper()
	var hits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"v":` + itoa(n) + `}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func fastOpts(ft http.RoundTripper) Options {
	return Options{
		Transport:      ft,
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		Seed:           1,
	}
}

func TestRetryOn500ThenSuccess(t *testing.T) {
	srv, hits := newEchoServer(t)
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPErr500},
		{Req: 1, Kind: difftest.HTTPErr500},
	}}
	c := New(fastOpts(ft))
	var out struct {
		V int `json:"v"`
	}
	resp, err := c.GetJSON(context.Background(), srv.URL+"/dist?s=0&t=1", &out)
	if err != nil {
		t.Fatalf("GetJSON: %v", err)
	}
	if resp.Status != http.StatusOK || out.V != 1 {
		t.Fatalf("got status %d v=%d, want 200 v=1", resp.Status, out.V)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (500s are synthesized)", got)
	}
	st := c.Snapshot()
	if st.Requests != 1 || st.Attempts != 3 || st.Retries != 2 || st.Successes != 1 || st.Failures != 0 {
		t.Fatalf("stats %+v, want Requests=1 Attempts=3 Retries=2 Successes=1", st)
	}
}

func TestTruncatedBodyRetried(t *testing.T) {
	srv, _ := newEchoServer(t)
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPTruncate},
	}}
	c := New(fastOpts(ft))
	var out struct {
		V int `json:"v"`
	}
	if _, err := c.GetJSON(context.Background(), srv.URL+"/dist", &out); err != nil {
		t.Fatalf("GetJSON after truncation: %v", err)
	}
	if out.V != 2 {
		t.Fatalf("v=%d, want 2 (first answer truncated, second served)", out.V)
	}
	st := c.Snapshot()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Fatalf("stats %+v, want Attempts=2 Retries=1", st)
	}
}

func TestResetRetried(t *testing.T) {
	srv, _ := newEchoServer(t)
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPReset, Arg: 1}, // reset after: answer lost
	}}
	c := New(fastOpts(ft))
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil); err != nil {
		t.Fatalf("Do after reset: %v", err)
	}
	if st := c.Snapshot(); st.Attempts != 2 {
		t.Fatalf("stats %+v, want Attempts=2", st)
	}
}

func TestRetryAfterHonored(t *testing.T) {
	srv, _ := newEchoServer(t)
	// The injected 503 carries Retry-After: 1 (second); the cap shrinks the
	// honored wait into test scale while keeping it well above the backoff.
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPErr503},
	}}
	opts := fastOpts(ft)
	opts.CapRetryAfter = 60 * time.Millisecond
	c := New(opts)
	start := time.Now()
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("retry fired after %v, want >= capped Retry-After (60ms)", elapsed)
	}
	if st := c.Snapshot(); st.RetryAfter != 1 {
		t.Fatalf("stats %+v, want RetryAfter=1", st)
	}
}

func TestAttemptsExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	opts := fastOpts(&httpfault.Transport{})
	opts.MaxAttempts = 3
	opts.BreakerTrip = -1
	c := New(opts)
	_, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil)
	if err == nil {
		t.Fatal("Do succeeded against an all-500 server")
	}
	st := c.Snapshot()
	if st.Attempts != 3 || st.Failures != 1 || st.Successes != 0 {
		t.Fatalf("stats %+v, want Attempts=3 Failures=1", st)
	}
}

func TestNonRetryableStatusIsFinal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such pair", http.StatusNotFound)
	}))
	defer srv.Close()
	c := New(fastOpts(&httpfault.Transport{}))
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != http.StatusNotFound {
		t.Fatalf("status %d, want 404 passed through", resp.Status)
	}
	if st := c.Snapshot(); st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v, want a single attempt (4xx is final)", st)
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer srv.Close()
	opts := fastOpts(&httpfault.Transport{})
	opts.MaxAttempts = 2
	opts.BreakerTrip = 3
	c := New(opts)
	url := srv.URL + "/dist"

	// First Do: two failed attempts (fails=2, still closed).
	if _, err := c.Do(context.Background(), http.MethodGet, url, "", nil); err == nil {
		t.Fatal("Do succeeded against broken server")
	}
	// Second Do: third failure opens the circuit; the retry inside the same
	// Do then fails fast.
	_, err := c.Do(context.Background(), http.MethodGet, url, "", nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen on the in-flight retry", err)
	}
	st := c.Snapshot()
	if st.BreakerOpens != 1 || st.BreakerFast != 1 {
		t.Fatalf("stats %+v, want BreakerOpens=1 BreakerFast=1", st)
	}
	// Within the cooloff every Do fails fast without touching the wire.
	attemptsBefore := st.Attempts
	if _, err := c.Do(context.Background(), http.MethodGet, url, "", nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want fast ErrBreakerOpen while open", err)
	}
	if st = c.Snapshot(); st.Attempts != attemptsBefore {
		t.Fatalf("open breaker still attempted: %d -> %d", attemptsBefore, st.Attempts)
	}
	// After the cooloff the half-open probe discovers the recovery.
	broken.Store(false)
	time.Sleep(breakerCooloff + 10*time.Millisecond)
	if _, err := c.Do(context.Background(), http.MethodGet, url, "", nil); err != nil {
		t.Fatalf("probe Do after recovery: %v", err)
	}
	// And the circuit is closed again: plain successes, no probes needed.
	if _, err := c.Do(context.Background(), http.MethodGet, url, "", nil); err != nil {
		t.Fatalf("Do after close: %v", err)
	}
}

func TestHedgeWinsOverDelayedPrimary(t *testing.T) {
	srv, _ := newEchoServer(t)
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPDelay, Arg: int64(500 * time.Millisecond)},
	}}
	opts := fastOpts(ft)
	opts.Hedge = true
	opts.HedgeDelay = 5 * time.Millisecond
	c := New(opts)
	start := time.Now()
	resp, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.Status)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Fatalf("hedge did not rescue the delayed primary: took %v", elapsed)
	}
	st := c.Snapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want Hedges=1 HedgeWins=1", st)
	}
}

func TestBlackholeBoundedByAttemptTimeout(t *testing.T) {
	srv, _ := newEchoServer(t)
	ft := &difftest.HTTPScript{Events: []difftest.HTTPEvent{
		{Req: 0, Kind: difftest.HTTPBlackhole},
	}}
	opts := fastOpts(ft)
	opts.AttemptTimeout = 30 * time.Millisecond
	opts.MaxAttempts = 2
	c := New(opts)
	start := time.Now()
	if _, err := c.Do(context.Background(), http.MethodGet, srv.URL+"/dist", "", nil); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("blackholed attempt not bounded: took %v", elapsed)
	}
	if st := c.Snapshot(); st.Attempts != 2 {
		t.Fatalf("stats %+v, want Attempts=2 (blackhole timed out, retry served)", st)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	srv, _ := newEchoServer(t)
	ft := &httpfault.Transport{Plan: httpfault.Plan{Seed: 1, Blackhole: 1}}
	opts := fastOpts(ft)
	opts.AttemptTimeout = 10 * time.Second
	c := New(opts)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Do(ctx, http.MethodGet, srv.URL+"/dist", "", nil); err == nil {
		t.Fatal("Do succeeded through a total blackhole")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled Do returned after %v", elapsed)
	}
}

func TestJitterDeterminism(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		c := New(Options{Seed: seed, BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoff(i + 1)
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at %d: %v vs %v", i, a[i], b[i])
		}
		ceil := time.Millisecond << uint(i)
		if ceil > 64*time.Millisecond {
			ceil = 64 * time.Millisecond
		}
		if a[i] <= 0 || a[i] > ceil {
			t.Fatalf("backoff(%d) = %v outside (0, %v]", i+1, a[i], ceil)
		}
	}
	if c := mk(43); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Fatal("different seeds produced identical jitter prefix")
	}
}

func TestLatWindowQuantile(t *testing.T) {
	w := newLatWindow(8)
	if q := w.quantile(0.99); q != 0 {
		t.Fatalf("empty window quantile = %v, want 0", q)
	}
	for i := 1; i <= 10; i++ { // wraps: window holds 3..10
		w.observe(time.Duration(i) * time.Millisecond)
	}
	if q := w.quantile(0.5); q < 3*time.Millisecond || q > 10*time.Millisecond {
		t.Fatalf("median %v outside window range", q)
	}
	if q := w.quantile(0.99); q != 10*time.Millisecond {
		t.Fatalf("p99 = %v, want 10ms (max of window)", q)
	}
}

// sortedCopyQuantile is the rule the sorted shadow replaced: sort a copy
// of the window, then take index int(q·n+0.5)−1, clamped.
func sortedCopyQuantile(window []time.Duration, q float64) time.Duration {
	if len(window) == 0 {
		return 0
	}
	cp := slices.Clone(window)
	slices.Sort(cp)
	return cp[min(max(int(q*float64(len(cp))+0.5)-1, 0), len(cp)-1)]
}

// TestLatWindowMatchesSortedCopy replays random observations — drawn
// from a few values, so duplicates are the rule, and wrapping each ring
// more than ten times — and checks every quantile read against
// sortedCopyQuantile after every observe.
func TestLatWindowMatchesSortedCopy(t *testing.T) {
	const observations = 12*256 + 7
	for _, size := range []int{1, 8, 256} {
		rng := rand.New(rand.NewPCG(uint64(size), 36))
		w := newLatWindow(size)
		var seen []time.Duration
		for k := 0; k < observations; k++ {
			d := time.Duration(rng.IntN(12)) * time.Millisecond
			if rng.IntN(8) == 0 {
				d = time.Duration(rng.Int64N(int64(time.Second)))
			}
			w.observe(d)
			seen = append(seen, d)
			window := seen[max(len(seen)-size, 0):]
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if got, want := w.quantile(q), sortedCopyQuantile(window, q); got != want {
					t.Fatalf("size %d, after %d observations: quantile(%v) = %v, want %v", size, k+1, q, got, want)
				}
			}
		}
	}
}

// TestHedgeDelayAllocatesNothing guards the per-request hedge trigger:
// reading the delay from a full window must not copy it, and recording a
// latency must not grow it.
func TestHedgeDelayAllocatesNothing(t *testing.T) {
	c := New(Options{Hedge: true})
	for i := 0; i < 300; i++ {
		c.lat.observe(time.Duration(i%37) * time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.hedgeDelay() }); allocs != 0 {
		t.Fatalf("hedgeDelay allocates %v times per call, want 0", allocs)
	}
	k := 0
	if allocs := testing.AllocsPerRun(100, func() { k++; c.lat.observe(time.Duration(k%53) * time.Millisecond) }); allocs != 0 {
		t.Fatalf("observe allocates %v times per call, want 0", allocs)
	}
}
