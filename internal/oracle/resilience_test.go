package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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

// The slot counts at which the ladder's two rungs start: 192 and 231 of 256.
var (
	cacheRung    = int(math.Ceil(degradeCacheAt * maxInflight))
	distOnlyRung = int(math.Ceil(degradeDistOnlyAt * maxInflight))
)

func TestDegradeLadderLevels(t *testing.T) {
	_, srv, _ := newTestServer(t, nil)
	cases := []struct {
		occupied, want int
	}{
		{0, degradeNone}, {maxInflight / 2, degradeNone}, {cacheRung - 1, degradeNone},
		{cacheRung, degradeNoCacheInsert}, {distOnlyRung - 1, degradeNoCacheInsert},
		{distOnlyRung, degradeDistOnly}, {maxInflight, degradeDistOnly},
	}
	for _, c := range cases {
		release := fillSlots(t, srv, c.occupied)
		if got := srv.degradeLevel(); got != c.want {
			t.Errorf("degradeLevel at %d/%d = %d, want %d", c.occupied, maxInflight, got, c.want)
		}
		release()
	}
}

func TestDegradeDistOnlyRefusesPaths(t *testing.T) {
	ts, srv, snap := newTestServer(t, nil)
	src := snap.Sources()[0]
	// Occupy one slot short of the dist-only rung: the query itself takes
	// the last one, so at handler time the server is dist-only.
	release := fillSlots(t, srv, distOnlyRung-1)
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
	body := batchBody([]Query{
		{Kind: "dist", Src: src, Dst: 1},
		{Kind: "path", Src: src, Dst: 1},
	})
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
	_, srv, snap := newTestServer(t, nil)
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
	// At rung 1 a path walk must not populate the cache.
	release := fillSlots(t, srv, cacheRung)
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
	var items []Query
	for i := 0; i < 600; i++ { // two deadline-check segments
		items = append(items, Query{Kind: "dist", Src: src, Dst: i % snap.N()})
	}
	body := batchBody(items)

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
	_, srv, snap := newTestServer(t, nil)
	src := snap.Sources()[0]
	var items []Query
	for i := 0; i < 600; i++ {
		items = append(items, Query{Kind: "dist", Src: src, Dst: i % snap.N()})
	}
	body := batchBody(items)
	// A request whose deadline has already passed: the server's own
	// deadline only ever shortens it.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)).WithContext(ctx)
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

// TestQueryAppliesDeadline: every admitted query runs under the server's
// own deadline — a request that arrives with none, or with a later one,
// reaches the handler bounded by deadline from the moment it was admitted.
func TestQueryAppliesDeadline(t *testing.T) {
	_, srv, _ := newTestServer(t, nil)
	later, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for name, ctx := range map[string]context.Context{"none": context.Background(), "an hour": later} {
		var dl time.Time
		var ok bool
		start := time.Now()
		h := srv.query("batch", func(w http.ResponseWriter, r *http.Request, _ *Snapshot) int {
			dl, ok = r.Context().Deadline()
			return http.StatusOK
		})
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/batch", nil).WithContext(ctx))
		end := time.Now()
		if !ok {
			t.Fatalf("request with %s deadline: handler ran without one", name)
		}
		// Admission happened between start and end, so the deadline lies
		// between start+deadline and end+deadline.
		if dl.Before(start.Add(deadline)) || dl.After(end.Add(deadline)) {
			t.Fatalf("request with %s deadline: handler deadline %v after start, want %v", name, dl.Sub(start), deadline)
		}
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

// TestAdmissionSaturation hammers a server with one free admission slot
// with concurrent requests (run under -race in CI). Invariants,
// independent of timing:
// every request is answered exactly once, as either a 200 or a 429; every
// 429 carries Retry-After; and the shed metric counts the 429s exactly —
// no request is both shed and answered, none vanishes.
func TestAdmissionSaturation(t *testing.T) {
	ts, srv, snap := newTestServer(t, nil)
	defer fillSlots(t, srv, maxInflight-1)()
	src := snap.Sources()[0]
	// A full budget of dist lookups holds the slot for a while; with one
	// slot left the ladder is at dist-only, which leaves them alone.
	var items []Query
	for i := 0; i < batchBudget; i++ {
		items = append(items, Query{Kind: "dist", Src: src, Dst: i % snap.N()})
	}
	body := batchBody(items)

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
