package difftest

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpfault"
)

// newHTTPBackend returns a test server answering every request with a
// fixed JSON body, plus a client whose transport runs through s.
func newHTTPBackend(t *testing.T, s *HTTPScript) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"answer":42,"pad":"0123456789abcdef0123456789abcdef"}`))
	}))
	t.Cleanup(ts.Close)
	s.Transport.Inner = ts.Client().Transport
	return ts, &http.Client{Transport: s}
}

func httpGet(c *http.Client, url string) (*http.Response, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	return resp, body, rerr
}

func TestScriptedFaults(t *testing.T) {
	s := &HTTPScript{Events: []HTTPEvent{
		{Req: 0, Kind: HTTPReset},                                                           // before the server
		{Req: 1, Kind: HTTPReset, Arg: 1},                                                   // after the server
		{Req: 2, Kind: HTTPErr500},                                                          //
		{Req: 3, Kind: HTTPErr503},                                                          //
		{Req: 4, Kind: HTTPTruncate},                                                        //
		{Req: 5, Kind: HTTPDelay, Arg: int64(2 * time.Millisecond)},                         // delay only
		{Req: 6, Kind: HTTPBlackhole},                                                       //
		{Req: 7, Kind: HTTPDelay, Arg: int64(time.Millisecond)}, {Req: 7, Kind: HTTPErr500}, // composition
	}}
	ts, c := newHTTPBackend(t, s)

	// req 0: reset before — transport error unwrapping to ErrReset.
	if _, _, err := httpGet(c, ts.URL); !errors.Is(err, httpfault.ErrReset) {
		t.Fatalf("req 0: err = %v, want ErrReset", err)
	}
	// req 1: reset after — also an error, but the server saw the request.
	if _, _, err := httpGet(c, ts.URL); !errors.Is(err, httpfault.ErrReset) {
		t.Fatalf("req 1: err = %v, want ErrReset", err)
	}
	// req 2: synthesized 500.
	if resp, _, err := httpGet(c, ts.URL); err != nil || resp.StatusCode != 500 {
		t.Fatalf("req 2: resp=%v err=%v, want 500", resp, err)
	}
	// req 3: synthesized 503 with Retry-After.
	if resp, _, err := httpGet(c, ts.URL); err != nil || resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("req 3: resp=%v err=%v, want 503 + Retry-After", resp, err)
	}
	// req 4: truncated body — the read must fail, never a clean short read.
	if _, _, err := httpGet(c, ts.URL); !errors.Is(err, httpfault.ErrTruncated) {
		t.Fatalf("req 4: err = %v, want ErrTruncated", err)
	}
	// req 5: delay only — the answer still arrives intact.
	start := time.Now()
	if resp, body, err := httpGet(c, ts.URL); err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), "42") {
		t.Fatalf("req 5: resp=%v err=%v", resp, err)
	} else if time.Since(start) < 2*time.Millisecond {
		t.Fatalf("req 5: no delay observed")
	}
	// req 6: blackhole — only the context deadline gets the client out.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL, nil)
	if _, err := c.Do(req); err == nil {
		t.Fatalf("req 6: blackhole answered")
	}
	// req 7: delay + 500 compose.
	if resp, _, err := httpGet(c, ts.URL); err != nil || resp.StatusCode != 500 {
		t.Fatalf("req 7: resp=%v err=%v, want 500", resp, err)
	}

	got := s.Transport.Snapshot()
	want := httpfault.Stats{Requests: 8, Delays: 2, ResetsPre: 1, ResetsPost: 1, Err500s: 2, Err503s: 1, Truncations: 1, Blackholes: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestScriptShrink: a failure triggered by one event in a large script
// ddmins down to that single event.
func TestScriptShrink(t *testing.T) {
	script := make([]HTTPEvent, 0, 41)
	for i := 0; i < 40; i++ {
		script = append(script, HTTPEvent{Req: uint64(i), Kind: HTTPDelay, Arg: int64(time.Microsecond)})
	}
	script = append(script, HTTPEvent{Req: 17, Kind: HTTPErr500})

	// The "failure": request 17 answers non-200 under the script.
	fails := func(evs []HTTPEvent) bool {
		s := &HTTPScript{Events: evs}
		ts, c := newHTTPBackend(t, s)
		var bad bool
		for i := 0; i < 40; i++ {
			resp, _, err := httpGet(c, ts.URL)
			if err == nil && resp.StatusCode != 200 && i == 17 {
				bad = true
			}
		}
		return bad
	}
	min := DDMin(script, fails)
	if len(min) != 1 || min[0].Kind != HTTPErr500 || min[0].Req != 17 {
		t.Fatalf("shrink did not isolate the 500 event: %+v", min)
	}
}
