package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fillSlots occupies n admission slots directly (white-box: the ladder is
// a function of semaphore occupancy, so the test sets occupancy exactly
// instead of racing slow requests against it).
func fillSlots(t *testing.T, srv *Server, n int) func() {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case srv.sem <- struct{}{}:
		default:
			t.Fatalf("could not occupy slot %d of %d", i, n)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-srv.sem
		}
	}
}

func TestDegradeLadderLevels(t *testing.T) {
	_, srv, _ := newTestServer(t, func(s *Server) { s.MaxInflight = 10 })
	cases := []struct {
		occupied, want int
	}{
		{0, degradeNone}, {5, degradeNone}, {7, degradeNone},
		{8, degradeNoCacheInsert}, {9, degradeDistOnly}, {10, degradeDistOnly},
	}
	for _, c := range cases {
		release := fillSlots(t, srv, c.occupied)
		if got := srv.degradeLevel(); got != c.want {
			t.Errorf("degradeLevel at %d/10 = %d, want %d", c.occupied, got, c.want)
		}
		release()
	}
}

func TestDegradeDistOnlyRefusesPaths(t *testing.T) {
	ts, srv, snap := newTestServer(t, func(s *Server) { s.MaxInflight = 10 })
	src := snap.Sources()[0]
	// Occupy 8 of 10: the query itself takes a 9th slot, so at handler
	// time occupancy is 9/10 >= 0.9 — dist-only.
	release := fillSlots(t, srv, 8)
	defer release()

	resp, err := http.Get(fmt.Sprintf("%s/path?src=%d&dst=1", ts.URL, src))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/path under dist-only load: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded /path refusal lacks Retry-After")
	}
	if srv.Met.DegradedPaths.Value() != 1 {
		t.Fatalf("DegradedPaths = %v, want 1", srv.Met.DegradedPaths.Value())
	}

	// Dist lookups keep full service on the same rung.
	var dresp distResp
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, src), &dresp); status != http.StatusOK {
		t.Fatalf("/dist under dist-only load: status %d, want 200", status)
	}

	// Batch path items degrade per-item; dist items still answer.
	body, _ := json.Marshal(batchReq{Queries: []batchItem{
		{Kind: "dist", Src: src, Dst: 1},
		{Kind: "path", Src: src, Dst: 1},
	}})
	bresp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br batchResp
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Status != 0 {
		t.Fatalf("batch dist item degraded: %+v", br.Results[0])
	}
	if br.Results[1].Status != http.StatusServiceUnavailable {
		t.Fatalf("batch path item status %d, want 503: %+v", br.Results[1].Status, br.Results[1])
	}
}

func TestDegradeStopsCacheInserts(t *testing.T) {
	_, srv, snap := newTestServer(t, func(s *Server) { s.MaxInflight = 10 })
	row, dst := 0, -1
	for v := 0; v < snap.N(); v++ { // any reachable target will do
		if v != snap.Sources()[row] && snap.DistAt(row, v) < 1<<60 {
			dst = v
			break
		}
	}
	if dst < 0 {
		t.Fatal("no reachable target from row 0")
	}
	// At rung 1 (8/10 occupied) a path walk must not populate the cache.
	release := fillSlots(t, srv, 8)
	if _, err := srv.lookupPath(context.Background(), snap, row, dst); err != nil {
		t.Fatalf("lookupPath: %v", err)
	}
	release()
	if _, _, ok := srv.Cache.Get(snap.Gen(), row, dst); ok {
		t.Fatal("cache admitted an insert while degraded")
	}
	// Unloaded, the same lookup caches.
	if _, err := srv.lookupPath(context.Background(), snap, row, dst); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := srv.Cache.Get(snap.Gen(), row, dst); !ok {
		t.Fatal("cache insert did not resume at full service")
	}
}

func TestRecomputeFailureServesStale(t *testing.T) {
	var fail bool
	var mu sync.Mutex
	ts, srv, snap := newTestServer(t, nil)
	srv.Recompute = func(ctx context.Context) (*Snapshot, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return nil, errors.New("injected compute failure")
		}
		g, _, in := testInput(t, 16, 48, 21, []int{0, 2, 5, 9})
		return Build(g, in, BuildOpts{})
	}
	trigger := func() {
		resp, err := http.Post(ts.URL+"/admin/recompute", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("recompute trigger: status %d", resp.StatusCode)
		}
		for i := 0; srv.recomputing.Load(); i++ {
			if i > 1000 {
				t.Fatal("recompute did not finish")
			}
			time.Sleep(time.Millisecond)
		}
	}

	mu.Lock()
	fail = true
	mu.Unlock()
	trigger()
	var h Health
	if status := getJSON(t, ts.URL+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("healthz while stale: status %d, want 200 (stale still serves)", status)
	}
	if h.Status != "stale" || !strings.Contains(h.LastError, "injected compute failure") {
		t.Fatalf("healthz = %+v, want stale with the recompute error", h)
	}
	if h.Gen != snap.Gen() {
		t.Fatalf("healthz gen %d, want the stale generation %d", h.Gen, snap.Gen())
	}
	if srv.Met.RecomputeFails.Value() != 1 {
		t.Fatalf("RecomputeFails = %v, want 1", srv.Met.RecomputeFails.Value())
	}
	// Queries still answer from the stale generation.
	var dresp distResp
	if status := getJSON(t, fmt.Sprintf("%s/dist?src=%d&dst=1", ts.URL, snap.Sources()[0]), &dresp); status != http.StatusOK {
		t.Fatalf("stale /dist status %d", status)
	}
	if dresp.Gen != snap.Gen() {
		t.Fatalf("stale /dist gen %d, want %d", dresp.Gen, snap.Gen())
	}

	// A later successful recompute clears the flag.
	mu.Lock()
	fail = false
	mu.Unlock()
	trigger()
	if status := getJSON(t, ts.URL+"/healthz", &h); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after recovery = %d %+v, want ok", status, h)
	}
	if h.Gen != snap.Gen()+1 {
		t.Fatalf("healthz gen %d, want fresh generation %d", h.Gen, snap.Gen()+1)
	}
}

func TestBatchClientDisconnect(t *testing.T) {
	_, srv, snap := newTestServer(t, nil)
	src := snap.Sources()[0]
	var items []batchItem
	for i := 0; i < 600; i++ { // two deadline-check segments
		items = append(items, batchItem{Kind: "dist", Src: src, Dst: i % snap.N()})
	}
	body, _ := json.Marshal(batchReq{Queries: items})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the handler starts
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosed {
		t.Fatalf("disconnected batch: status %d, want %d", rec.Code, statusClientClosed)
	}
	var er errResp
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "aborted after 0 of 600") {
		t.Fatalf("partial error = %q, want the typed done/total report", er.Error)
	}
	if srv.Met.DeadlineExceeded.Value() != 0 {
		t.Fatal("client disconnect miscounted as deadline_exceeded")
	}
}

func TestBatchDeadlineExceeded(t *testing.T) {
	_, srv, snap := newTestServer(t, func(s *Server) { s.Deadline = time.Nanosecond })
	src := snap.Sources()[0]
	var items []batchItem
	for i := 0; i < 600; i++ {
		items = append(items, batchItem{Kind: "dist", Src: src, Dst: i % snap.N()})
	}
	body, _ := json.Marshal(batchReq{Queries: items})
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline batch: status %d, want 504", rec.Code)
	}
	var er errResp
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "of 600 queries") || !strings.Contains(er.Error, "deadline exceeded") {
		t.Fatalf("partial error = %q, want done/total + deadline cause", er.Error)
	}
	if srv.Met.DeadlineExceeded.Value() != 1 {
		t.Fatalf("DeadlineExceeded = %v, want 1", srv.Met.DeadlineExceeded.Value())
	}
}

func TestBatchPartialErrorUnwraps(t *testing.T) {
	e := &BatchPartialError{Done: 3, Total: 10, Cause: context.DeadlineExceeded}
	if !errors.Is(e, context.DeadlineExceeded) {
		t.Fatal("BatchPartialError must unwrap to its cause")
	}
	if !strings.Contains(e.Error(), "3 of 10") {
		t.Fatalf("Error() = %q", e.Error())
	}
}

// TestAdmissionSaturation hammers a MaxInflight=1 server with concurrent
// requests (run under -race in CI). Invariants, independent of timing:
// every request is answered exactly once, as either a 200 or a 429; every
// 429 carries Retry-After; and the shed metric counts the 429s exactly —
// no request is both shed and answered, none vanishes.
func TestAdmissionSaturation(t *testing.T) {
	ts, srv, snap := newTestServer(t, func(s *Server) {
		s.MaxInflight = 1
		s.AdmitWait = time.Microsecond
		s.DegradeCacheAt = -1 // isolate admission: no ladder interference
		s.DegradeDistOnlyAt = -1
	})
	src := snap.Sources()[0]
	// Path batches are slow enough (no cache) to hold the only slot.
	srv.Cache = nil
	var items []batchItem
	for i := 0; i < 512; i++ {
		items = append(items, batchItem{Kind: "path", Src: src, Dst: i % snap.N()})
	}
	body, _ := json.Marshal(batchReq{Queries: items})

	const workers, perWorker = 8, 6
	var ok200, shed429, other atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					other.add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("shed response lacks Retry-After")
					}
					shed429.add(1)
				default:
					other.add(1)
				}
			}
		}()
	}
	wg.Wait()
	total := workers * perWorker
	if got := ok200.load() + shed429.load() + other.load(); got != int64(total) {
		t.Fatalf("answered %d of %d requests", got, total)
	}
	if other.load() != 0 {
		t.Fatalf("%d requests neither served nor shed", other.load())
	}
	if ok200.load() == 0 {
		t.Fatal("saturation shed everything; the slot holder should finish")
	}
	if got := int64(srv.Met.Shed.Value()); got != shed429.load() {
		t.Fatalf("shed metric %d != observed 429s %d", got, shed429.load())
	}
}

// atomic64 is a tiny helper to keep the saturation counts race-clean.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
