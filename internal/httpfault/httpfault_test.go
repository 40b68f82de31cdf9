package httpfault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newBackend returns a test server answering every request with a fixed
// JSON body, plus a client whose transport runs through the injector.
func newBackend(t *testing.T, tr *Transport) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"answer":42,"pad":"0123456789abcdef0123456789abcdef"}`))
	}))
	t.Cleanup(ts.Close)
	if tr.Inner == nil {
		tr.Inner = ts.Client().Transport
	}
	return ts, &http.Client{Transport: tr}
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	return resp, body, rerr
}

func TestPassThrough(t *testing.T) {
	tr := &Transport{} // zero plan: perfect transport
	ts, c := newBackend(t, tr)
	resp, body, err := get(t, c, ts.URL)
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), "42") {
		t.Fatalf("pass-through: status=%v body=%q err=%v", resp, body, err)
	}
	if s := tr.Snapshot(); s.Requests != 1 || s.Delays+s.ResetsPre+s.ResetsPost+s.Err500s+s.Err503s+s.Truncations+s.Blackholes != 0 {
		t.Fatalf("pass-through injected faults: %+v", s)
	}
}

// cancelOnClose is the body of a request the test knows will be
// blackholed. RoundTrip closes a request's body once it has settled and
// counted the request's fate — before it starts waiting on the context —
// so Close is the moment to give up on the request.
type cancelOnClose struct{ cancel context.CancelFunc }

func (cancelOnClose) Read([]byte) (int, error) { return 0, io.EOF }
func (c cancelOnClose) Close() error           { c.cancel(); return nil }

// drive sends n requests through tr, one after another, to a real
// listener, and returns what each one saw. None carries a deadline, so
// nothing the transport counts depends on how fast the host is: an
// injected delay runs out on its own, and a blackholed request, which only
// its context ends, is cancelled by its own body (cancelOnClose).
func drive(t *testing.T, tr *Transport, n int) []string {
	t.Helper()
	ts, c := newBackend(t, tr)
	var log []string
	for i := uint64(0); i < uint64(n); i++ {
		f := tr.Plan.planFate(i)
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.Blackhole {
			req.Body = cancelOnClose{cancel}
		}
		seen := ""
		if resp, err := c.Do(req); err != nil {
			seen = fmt.Sprintf("reset=%v cancelled=%v", errors.Is(err, ErrReset), errors.Is(err, context.Canceled))
		} else {
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			seen = fmt.Sprintf("status=%d truncated=%v", resp.StatusCode, errors.Is(err, ErrTruncated))
		}
		log = append(log, seen)
		cancel()
	}
	return log
}

// TestPlanDeterminism: the same plan over the same request order injects
// the same faults, request by request.
func TestPlanDeterminism(t *testing.T) {
	run := func() (Stats, []string) {
		tr := &Transport{Plan: All(7)}
		log := drive(t, tr, 200)
		return tr.Snapshot(), log
	}
	s1, log1 := run()
	s2, log2 := run()
	if s1 != s2 {
		t.Fatalf("two identical runs differ: %+v vs %+v", s1, s2)
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("request %d saw %q, then %q", i, log1[i], log2[i])
		}
	}
	if s1.Requests != 200 {
		t.Fatalf("requests = %d, want 200", s1.Requests)
	}
	// All(7) at 200 requests must actually exercise the fault space.
	if s1.Delays == 0 || s1.ResetsPre+s1.ResetsPost == 0 || s1.Err500s == 0 || s1.Err503s == 0 || s1.Blackholes == 0 {
		t.Fatalf("chaos plan injected too little: %+v", s1)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"none",
		"all",
		"delay=2ms,delayp=0.2,reset=0.1,err500=0.05,err503=0.05,truncate=0.05,blackhole=0.02,seed=7",
		"reset=0.5",
		"delay=1ms,delayp=1,seed=-3",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", s, err)
		}
		if p != p2 {
			t.Fatalf("round trip %q: %+v != %+v", s, p, p2)
		}
	}
	for _, bad := range []string{"delay=abc", "reset=2", "blackhole=-1", "wat=1", "delay=5s", "reorder", "reset=0.2,reset=0"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestListenerKills: a wrapped listener with KillP=1 kills every
// connection; the client observes transport errors.
func TestListenerKills(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 64<<10)) // large enough to span several writes
	}))
	ln := WrapListener(ts.Listener, Plan{Seed: 3}, 1.0)
	ts.Listener = ln
	ts.Start()
	defer ts.Close()

	client := &http.Client{Timeout: 2 * time.Second}
	errs := 0
	for i := 0; i < 8; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			errs++
			continue
		}
		if _, rerr := io.ReadAll(resp.Body); rerr != nil {
			errs++
		}
		resp.Body.Close()
	}
	if errs == 0 {
		t.Fatalf("KillP=1 listener produced no client-visible failures")
	}
}

// TestListenerPassThrough: KillP=0 never kills: every request succeeds.
func TestListenerPassThrough(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	ln := WrapListener(ts.Listener, Plan{Seed: 3}, 0)
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatalf("clean listener failed: %v", err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("clean listener cut a body: %v", err)
		}
		resp.Body.Close()
	}
}

// TestTruncatedShortBody: a body that ends before the cut still reads as
// a truncation, never as a clean EOF.
func TestTruncatedShortBody(t *testing.T) {
	b := truncateBody(io.NopCloser(strings.NewReader("short")), -1) // unknown length: cut at 16
	got, err := io.ReadAll(b)
	if string(got) != "short" || !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadAll = %q, %v; want the 5 bytes, then ErrTruncated", got, err)
	}
}
